import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvnext import numcore as nc
from kvnext import schwarz_gap
from kvnext.errors import NotHermitian, NotPsd, NotSquare, ResultOutOfRange, ShapeMismatch
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
    assert nc.is_psd(np.array([2.0]))  # 1-d input is a column, here 1 x 1
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


def _layouts():
    """Square inputs in C order, F order and as strided slices, with the
    empty and 1 x 1 shapes and every sign of zero."""
    rng = rng_for(88)
    z = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    zeros = np.array([[complex(-0.0, -0.0), complex(0.0, -0.0)], [complex(-0.0, 0.0), complex(0.0, 0.0)]])
    yield z
    yield np.asfortranarray(z)
    yield z[::2, 1::2]
    yield z.T
    yield np.zeros((0, 0), dtype=complex)
    yield np.array([[-0.0 - 0.0j]])
    yield np.array([[2.5 - 0.0j]])
    yield zeros
    yield zeros.T


def test_hermitian_part_and_residual_equal_the_plain_expressions_bit_for_bit():
    rng = rng_for(89)
    stack = rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5))
    for x in [*_layouts(), stack]:
        adj = np.swapaxes(x.conj(), -1, -2)  # x.conj().T on a matrix
        plain = 0.5 * (x + adj)
        kernel = nc._herm(x)
        assert kernel.tobytes() == plain.tobytes()
        assert kernel.flags.c_contiguous == plain.flags.c_contiguous
        assert np.signbit(kernel.view(float)).tobytes() == np.signbit(plain.view(float)).tobytes()
        residual = nc.hermitian_residual(x)
        assert np.float64(residual).tobytes() == np.float64(nc.fro(x - adj)).tobytes()


_rule_values = st.just(0.0) | st.floats(2.0**-400, 2.0**400) | st.floats(-(2.0**400), -(2.0**-400))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    _rule_values,
    _rule_values.map(abs),
    _rule_values.map(abs),
    st.floats(1e-16, 0.5),
    st.integers(-300, 300),
)
def test_tolerance_rule_is_exact_under_powers_of_two(r, s, u, tol, k):
    """Scaling residual, scale and unit by 2^k keeps every product and sum
    normal, so the rule decides the same; the Hermitian rule's rescaled
    branch relies on this."""
    scaled = nc._within(np.ldexp(r, k), np.ldexp(s, k), tol, np.ldexp(u, k))
    assert scaled == nc._within(r, s, tol, u)
    # on arrays the rule is applied entry by entry
    pairs = [np.array([x, np.ldexp(x, k)]) for x in (r, s, u)]
    assert nc._within(pairs[0], pairs[1], tol, pairs[2]).tolist() == [scaled, scaled]


@pytest.mark.filterwarnings("error::RuntimeWarning")  # decided, not warned
@pytest.mark.parametrize("p", [0, 600, 1000])
def test_hermitian_rule_holds_where_the_norm_overflows(p):
    # cmp_tol * (1 + ||a||_F) is inf from 2^600 on; the rule is then
    # decided on a 2^-e, and must not accept a clearly non-Hermitian matrix
    skew = np.array([[1.0, 0.9], [0.0, 1.0]], dtype=complex) * 2.0**p
    herm = np.array([[1.0, 0.9j], [-0.9j, 1.0]]) * 2.0**p
    assert not nc.is_hermitian(skew, CFG)
    assert not nc.is_psd(skew, CFG)
    with pytest.raises(NotHermitian):
        nc.hermitian_eigen(skew, CFG)
    with pytest.raises(NotPsd):
        nc._psd_eigen(skew, CFG)
    assert nc.is_hermitian(herm, CFG)
    assert nc.is_psd(herm, CFG)
    assert nc.hermitian_eigen(herm, CFG).eigenvalues == pytest.approx(
        np.array([0.1, 1.9]) * 2.0**p, rel=1e-12
    )
    # a residual well within cmp_tol of the scale passes, one several times above it fails
    tol = nc.ToleranceConfig(cmp_tol=1e-6)
    for leak, ok in [(1e-7, True), (1e-5, False)]:
        near = herm.copy()
        near[0, 1] += leak * 2.0**p
        assert nc.is_hermitian(near, tol) is ok


@pytest.mark.filterwarnings("error::RuntimeWarning")  # decided, not warned
def test_hermitian_part_of_entries_near_the_float_limit_does_not_overflow():
    # a + a† overflows from entries of about 8.99e307 on
    big = 1e308 * np.eye(2)
    assert nc.is_psd(big, CFG)
    assert nc.psd_sqrt(big, CFG) == pytest.approx(1e154 * np.eye(2), rel=1e-15)
    with pytest.raises(ResultOutOfRange):  # ||A x||^2 = 2e616 is past the float range
        schwarz_gap([big], [(1, 1)])
    # where ||a||_F >= 2^1023 the part is a/2 + a†/2: the bits of the plain
    # formula on a 2^-8, times 2^8, and exactly Hermitian
    rng = rng_for(97)
    h = random_hermitian(rng, 6)
    for a in (h + 1e-11j * rng.standard_normal((6, 6)), h):
        huge = a / np.max(np.abs(a)) * 1.7e308
        part = nc._checked_herm(huge, CFG)[1]
        assert part.tobytes() == (nc._herm(huge * 2.0**-8) * 2.0**8).tobytes()
        assert np.array_equal(part, part.conj().T)
        # below 2^1023 the part is the plain formula's, bit for bit
        below = huge * 2.0**-8
        assert nc.fro(below * 2.0**-512) < 2.0**511
        assert nc._checked_herm(below, CFG)[1].tobytes() == nc._herm(below).tobytes()


def _norm_inputs():
    """Complex and real arrays in every layout of :func:`_layouts`, 1-d and
    3-d, at unit scale, at 2^-500 and 2^500, and past the float range: at
    2^600 the squares overflow and at 2^-600 they underflow to zero."""
    rng = rng_for(90)
    stack = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
    base = [*_layouts(), stack, stack[:, ::-1, 1::2], stack[0, 0], np.zeros(0, dtype=complex)]
    for x in base:
        for k in (0, -500, 500, -600, 600):
            yield np.ldexp(x.real, k) + 1j * np.ldexp(x.imag, k)
            yield np.ldexp(x.real, k)


def _bits_and_warnings(f):
    """(bytes of f()'s value, the messages of the RuntimeWarnings it raised)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = np.asarray(f(), dtype=float)
    return value.tobytes(), [str(w.message) for w in caught if w.category is RuntimeWarning]


def test_norms_equal_numpys_bit_for_bit_with_the_same_warnings():
    """fro and _norms are np.linalg.norm's arithmetic without its dispatch:
    the same bits, and the same RuntimeWarning where a square overflows."""
    overflowed = 0
    for x in _norm_inputs():
        plain = _bits_and_warnings(lambda: float(np.linalg.norm(x)))
        assert _bits_and_warnings(lambda: nc.fro(x)) == plain
        overflowed += bool(plain[1])
        for axis in range(-x.ndim, x.ndim):
            plain = _bits_and_warnings(lambda: np.linalg.norm(x, axis=axis))
            assert _bits_and_warnings(lambda: nc._norms(x, axis)) == plain
    assert overflowed  # the overflow branch was reached
