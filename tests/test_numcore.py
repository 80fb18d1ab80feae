import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvnext import numcore as nc
from kvnext.errors import NotHermitian, NotPsd, NotSquare, ShapeMismatch
from util_gen import random_hermitian, random_psd, random_unitary, rng_for

CFG = nc.DEFAULT_TOL


def test_tolerance_config_rejects_bad_values():
    with pytest.raises(ValueError):
        nc.ToleranceConfig(rank_rel_eps=0.0)
    with pytest.raises(ValueError):
        nc.ToleranceConfig(cmp_tol=1.5)


def test_eigen_identity():
    eig = nc.hermitian_eigen(np.eye(2))
    assert np.allclose(eig.eigenvalues, [1.0, 1.0])
    v = eig.eigenvectors
    assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-12)


def test_eigen_pauli_x():
    eig = nc.hermitian_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(eig.eigenvalues, [-1.0, 1.0])


def test_eigen_reconstruction_random():
    m = random_hermitian(rng_for(7), 6)
    eig = nc.hermitian_eigen(m)
    rebuilt = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T
    assert np.max(np.abs(rebuilt - m)) <= 1e-10


def test_eigen_rejects_non_hermitian_and_non_square():
    with pytest.raises(NotHermitian):
        nc.hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotSquare):
        nc.hermitian_eigen(np.zeros((2, 3)))


def test_eigen_deterministic_bitwise():
    m = random_hermitian(rng_for(3), 5)
    a = nc.hermitian_eigen(m)
    b = nc.hermitian_eigen(m.copy())
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_is_psd_examples():
    assert nc.is_psd(np.eye(2))
    assert not nc.is_psd(np.array([[0.0, 1.0], [1.0, 0.0]]))
    # eigenvalues 0 and 2 from the characteristic polynomial l^2 - 2l
    assert nc.is_psd(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(NotSquare):
        nc.is_psd(np.zeros((1, 2)))


def test_loewner_examples():
    assert nc.loewner_leq(np.zeros((2, 2)), np.eye(2))
    assert not nc.loewner_leq(np.eye(2), np.zeros((2, 2)))
    assert nc.loewner_leq(np.array([[1.0, 1.0], [1.0, 1.0]]), 2 * np.eye(2))
    with pytest.raises(ShapeMismatch):
        nc.loewner_leq(np.eye(2), np.eye(3))
    with pytest.raises(NotHermitian):
        nc.loewner_leq(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))


def test_loewner_reflexive_and_antisymmetric():
    rng = rng_for(23)
    for _ in range(25):
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        assert nc.loewner_leq(a, a)
        if nc.loewner_leq(a, b) and nc.loewner_leq(b, a):
            assert nc.fro(a - b) <= 10 * CFG.cmp_tol * (1.0 + nc.fro(a))


@pytest.mark.parametrize("s, inside", [(5e-11, False), (1e-8, True), (1e-7, True), (1e-6, True)])
def test_full_column_rank_decides_at_the_singular_value_cutoff(s, inside):
    # Y = q[:, :2] diag(1, s) v† has full column rank when s passes the
    # rule s > rank_rel_eps, whether or not its singular vectors are axes
    rng = rng_for(5)
    q = random_unitary(rng, 3)
    v = random_unitary(rng, 2)
    assert nc.full_column_rank((q[:, :2] * [1.0, s]) @ v.conj().T) == inside
    assert nc.full_column_rank(np.array([[1.0, 0.0], [0.0, s], [0.0, 0.0]])) == inside


def test_psd_sqrt_examples():
    assert np.allclose(nc.psd_sqrt(np.eye(3)), np.eye(3))
    assert np.allclose(nc.psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    m = random_psd(rng_for(9), 5, rank=3)
    s = nc.psd_sqrt(m)
    assert np.max(np.abs(s @ s - m)) <= 1e-9
    with pytest.raises(NotPsd):
        nc.psd_sqrt(-np.eye(2))


def test_sqrt_and_matrix_share_range():
    rng = rng_for(31)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        m = random_psd(rng, n, rank=int(rng.integers(0, n + 1)))
        s = nc.psd_sqrt(m)
        for x, y in ((m, s), (s, m)):
            kept = nc._kept(nc.hermitian_eigen(y), CFG)[1]
            assert nc._span_coords(x, kept, CFG) is not None


@st.composite
def psd_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    entries = draw(
        st.lists(
            st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
            min_size=2 * n * n,
            max_size=2 * n * n,
        )
    )
    flat = np.array(entries)
    b = (flat[: n * n] + 1j * flat[n * n :]).reshape(n, n)
    m = b @ b.conj().T / n
    return 0.5 * (m + m.conj().T)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(psd_matrices())
def test_psd_sqrt_squares_back(m):
    s = nc.psd_sqrt(m)
    assert np.max(np.abs(s @ s - m)) <= 1e-8 * (1.0 + nc.fro(m))
