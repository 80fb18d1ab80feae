import tracemalloc

import numpy as np
import pytest

from kvnext import minimal_constant_estimate, schwarz_gap
from kvnext import numcore as nc
from kvnext.errors import NotPsd, ResultOutOfRange, ShapeMismatch
from kvnext.schwarz import _Family
from util_gen import random_psd, random_vector, rng_for

CMP = 1e-8


def coupling_estimate(ops, iterations, seed, cfg=nc.DEFAULT_TOL):
    """The estimate as ``iterations`` matvecs on the (kn) x (kn) coupling
    V V†, from the same seeded start: the reference that the n x n
    repeated squaring on V† V is compared with."""
    family = _Family.validated(ops, cfg)
    v = np.vstack([nc._sqrt(eig, family.cfg) for eig in family.eigens])
    coupling = v @ v.conj().T
    rng = np.random.default_rng(seed)
    h = rng.standard_normal(coupling.shape[0]) + 1j * rng.standard_normal(
        coupling.shape[0]
    )
    for _ in range(max(int(iterations), 1)):
        h = coupling @ h
        norm = np.linalg.norm(h)
        if norm <= 0.0:
            return 0.0
        h = h / norm
    return float(np.linalg.norm(v.conj().T @ h) ** 2)


def norm_of_sum(ops):
    return float(max(np.max(np.linalg.eigvalsh(sum(ops))), 0.0))


def test_zero_family():
    report = schwarz_gap([np.zeros((2, 2))] * 3, [np.zeros(2)] * 3)
    assert report.lhs == 0.0 and report.rhs == 0.0 and report.constant == 0.0


def test_single_operator_equality_case():
    report = schwarz_gap([np.diag([2.0, 1.0])], [np.array([1.0, 0.0])])
    assert report.lhs == pytest.approx(4.0, abs=1e-12)
    assert report.constant == pytest.approx(2.0, abs=1e-12)
    assert report.rhs == pytest.approx(4.0, abs=1e-12)


def test_inequality_on_random_families():
    rng = rng_for(17)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        k = int(rng.integers(1, 4))
        ops = [random_psd(rng, n, rank=int(rng.integers(0, n + 1))) for _ in range(k)]
        vecs = [random_vector(rng, n) for _ in range(k)]
        report = schwarz_gap(ops, vecs)
        assert report.lhs <= report.rhs + 1e-10 * (1.0 + report.rhs)


def test_errors():
    with pytest.raises(ShapeMismatch):
        schwarz_gap([], [])
    with pytest.raises(ShapeMismatch):
        schwarz_gap([np.eye(2)], [np.zeros(3)])
    with pytest.raises(NotPsd):
        schwarz_gap([-np.eye(2)], [np.zeros(2)])


@pytest.mark.parametrize(
    "scale, xs, what",
    [
        # ||x||^2 = 2e320: numpy's norm squares without scaling
        (1.0, [[1e160, 1e160]], "left side ||sum_j A_j x_j||^2"),
        # the x_j cancel on the left, while their forms sum to 2e308
        (1.0, [[1e154, 0.0], [-1e154, 0.0]], "right side ||sum_j A_j|| sum_j <A_j x_j, x_j>"),
        # each A_j is representable, their sum 2.4e308 is not
        (8e307, [[0.0, 0.0]] * 3, "sum_j A_j"),
    ],
)
def test_gap_that_overflows_raises_result_out_of_range(scale, xs, what):
    with pytest.raises(ResultOutOfRange) as exc:
        schwarz_gap([scale * np.eye(2)] * len(xs), [np.array(x) for x in xs])
    assert str(exc.value) == f"{what} overflows the float range"


def test_estimate_identity():
    assert minimal_constant_estimate([np.eye(4)], 50, seed=0) == pytest.approx(
        1.0, abs=1e-10
    )


def test_estimate_diagonal():
    est = minimal_constant_estimate([np.diag([2.0, 1.0])], 100, seed=0)
    assert est == pytest.approx(2.0, abs=1e-6)


def test_estimate_reaches_norm_of_sum():
    rng = rng_for(29)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        ops = [random_psd(rng, n) for _ in range(3)]
        total = sum(ops)
        target = float(np.max(np.linalg.eigvalsh(total)))
        est = minimal_constant_estimate(ops, 2000, seed=5)
        assert est <= target + CMP * (1.0 + target)
        assert est == pytest.approx(target, rel=1e-3)


def test_single_operator_corollary_bulk():
    rng = rng_for(37)
    for _ in range(500):
        n = int(rng.integers(1, 8))
        a = random_psd(rng, n, rank=int(rng.integers(0, n + 1)))
        x = random_vector(rng, n)
        norm_a = float(max(np.max(np.linalg.eigvalsh(a)), 0.0))
        lhs = float(np.linalg.norm(a @ x) ** 2)
        rhs = norm_a * float(np.real(np.vdot(x, a @ x)))
        assert lhs <= rhs + 1e-10 * (1.0 + rhs)


def test_homogeneity():
    rng = rng_for(41)
    ops = [random_psd(rng, 4) for _ in range(2)]
    vecs = [random_vector(rng, 4) for _ in range(2)]
    base = schwarz_gap(ops, vecs)
    lam = 3.7
    scaled = schwarz_gap([lam * a for a in ops], vecs)
    assert scaled.lhs == pytest.approx(lam**2 * base.lhs, rel=1e-12)
    assert scaled.rhs == pytest.approx(lam**2 * base.rhs, rel=1e-12)
    if base.rhs > 0:
        assert scaled.lhs / scaled.rhs == pytest.approx(base.lhs / base.rhs, rel=1e-9)


@pytest.mark.parametrize("iterations", [0, 1, 2, 3, 200, 1000])
def test_estimate_matches_the_coupling_iteration(iterations):
    rng = rng_for(43)
    for trial in range(24):
        n = 48 if trial == 0 else int(rng.integers(1, 49))
        k = 10 if trial == 0 else int(rng.integers(1, 11))
        ranks = [int(rng.integers(0, n + 1)) for _ in range(k)]
        if trial == 1:
            ranks = [0] * k  # the all-zero family
        ops = [random_psd(rng, n, rank=r) for r in ranks]
        got = minimal_constant_estimate(ops, iterations, seed=trial)
        want = coupling_estimate(ops, iterations, seed=trial)
        if not any(ranks):
            assert got == want == 0.0
        assert abs(got - want) <= 1e-12 * (1.0 + norm_of_sum(ops)), (trial, got, want)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # validation decides, not warns
@pytest.mark.parametrize("p", [-1000, -800, -500, 500, 800, 1000])
def test_estimate_scales_by_exact_powers_of_two(p):
    # 2^p A_j is exact, and the estimate is homogeneous of degree one; the
    # coupling iteration underflows or overflows its norms from |p| = 800 on
    rng = rng_for(47)
    for trial in range(8):
        n = int(rng.integers(1, 9))
        ops = [random_psd(rng, n) for _ in range(int(rng.integers(1, 5)))]
        base = minimal_constant_estimate(ops, 200, seed=trial)
        scaled = minimal_constant_estimate([a * 2.0**p for a in ops], 200, seed=trial)
        assert scaled == pytest.approx(base * 2.0**p, rel=1e-12, abs=0.0)


def test_estimate_memory_stays_n_by_n():
    # k = 64, n = 32 at the CLI's iteration cap: the (kn) x (kn) coupling
    # alone would take 64 MiB
    rng = rng_for(53)
    ops = [random_psd(rng, 32) for _ in range(64)]
    tracemalloc.start()
    try:
        est = minimal_constant_estimate(ops, 100_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    target = norm_of_sum(ops)
    assert est <= target + CMP * (1.0 + target)
    assert est == pytest.approx(target, rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # validation decides, not warns
@pytest.mark.parametrize("p", [0, 1000])
def test_non_hermitian_family_is_rejected_at_every_scale(p):
    # the Hermitian test's threshold cmp_tol (1 + ||A||_F) overflows at
    # 2^1000; the family must still be refused, as at scale 1
    a = np.array([[1.0, 0.9], [0.0, 1.0]], dtype=complex) * 2.0**p
    with pytest.raises(NotPsd):
        minimal_constant_estimate([a], 50, 0)
