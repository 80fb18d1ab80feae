import math

import numpy as np
import pytest

from kvnext import (
    PartialOperator,
    a_max,
    halmos_complete,
    in_interval,
    krein_von_neumann,
    loewner_leq,
    sample_extensions,
)
from kvnext import numcore as nc
from kvnext.errors import BoundTooSmall, NotHermitian, NotPsd, ResultOutOfRange, ShapeMismatch
from kvnext.extension_set import IntervalResult, _samples
from kvnext.partial_op import gram_spectrum
from util_gen import (
    dominating_bound,
    extensions_by_block,
    orthonormal_columns,
    random_partial,
    random_psd,
    random_unitary,
    rng_for,
    skew_probe,
)

E1 = np.array([[1.0], [0.0]], dtype=complex)
RUN2 = PartialOperator(E1, np.array([[1.0], [1.0]], dtype=complex))
ONES = np.array([[1.0, 1.0], [1.0, 1.0]])


def test_a_max_at_the_minimal_bound_is_degenerate():
    res = a_max(RUN2, ONES)
    assert res.degenerate
    assert np.allclose(res.a_max, ONES, atol=1e-10)


def test_a_max_running_example():
    res = a_max(RUN2, 3 * np.eye(2))
    assert np.allclose(res.a_max, [[1.0, 1.0], [1.0, 2.5]], atol=1e-10)
    assert not res.degenerate
    # shifted Gram is 2, shifted action (2, -1)
    shifted = PartialOperator(E1, 3 * np.eye(2) @ E1 - RUN2.action)
    assert np.allclose(shifted.gram(), [[2.0]])
    assert np.allclose(
        krein_von_neumann(shifted).a_n, [[2.0, -1.0], [-1.0, 0.5]], atol=1e-10
    )


def test_a_max_tight_bound_collapses_to_a_n():
    res = a_max(RUN2, 2 * np.eye(2))
    assert res.degenerate
    assert np.allclose(res.a_max, ONES, atol=1e-9)


def test_bound_too_small_carries_certificate():
    # in_interval runs the bound check of a_max
    for call in (a_max, lambda p, b: in_interval(p, b, ONES)):
        with pytest.raises(BoundTooSmall) as info:
            call(RUN2, np.eye(2))
        cert = info.value.certificate
        gap = np.eye(2) - ONES
        assert float(np.real(np.vdot(cert, gap @ cert))) < 0


def test_a_bound_too_small_factors_its_gap_once(lapack_calls):
    with pytest.raises(BoundTooSmall, match=r"violation -1\.000e\+00 along"):
        a_max(RUN2, np.eye(2))
    # the Gram's spectrum decides the rank of D; the certificate of the gap
    # fails, eigvalsh decides, and one eigh of the gap gives the message and
    # the direction (the other eigh is the Gram's)
    counts = tuple(lapack_calls[k] for k in ("cholesky", "eigvalsh", "eigh"))
    assert counts == (1, 1, 2)


def test_a_singular_bound_gap_pays_one_certificate(lapack_calls):
    # B - a_n = [[0, 0], [0, 1]] is PSD but singular: the certificate at
    # floor 0 cannot prove it, and eigvalsh decides with no second Cholesky
    a_max(RUN2, [[1.0, 1.0], [1.0, 2.0]])
    assert (lapack_calls["cholesky"], lapack_calls["eigvalsh"]) == (1, 1)


def test_a_non_hermitian_candidate_is_rejected_before_any_factorization(lapack_calls):
    skew = [[1.0, 1.0], [0.0, 1.5]]
    with pytest.raises(NotHermitian, match="candidate"):
        in_interval(RUN2, 3 * np.eye(2), skew)
    assert (lapack_calls["eigh"], lapack_calls["cholesky"]) == (0, 0)
    # the candidate is tested first, so it is named when the bound is bad too
    with pytest.raises(NotHermitian, match="candidate"):
        in_interval(RUN2, [[3.0, 1.0], [0.0, 3.0]], skew)


def test_marginal_bound_accepted_with_warning():
    # dominates only within psd_tol: accepted, but flagged
    bound = ONES - 1e-12 * np.eye(2)
    with pytest.warns(UserWarning, match="tolerance-marginal"):
        res = a_max(RUN2, bound)
    assert res.degenerate
    # in_interval runs the same bound check
    with pytest.warns(UserWarning, match="tolerance-marginal"):
        assert in_interval(RUN2, bound, ONES)


def test_in_interval_examples():
    b = 3 * np.eye(2)
    assert in_interval(RUN2, b, ONES)
    cand = np.array([[1.0, 1.0], [1.0, 1.5]])
    assert in_interval(RUN2, b, cand)
    assert np.allclose(cand @ np.array([1.0, 0.0]), [1.0, 1.0])
    assert not in_interval(RUN2, b, np.eye(2))
    with pytest.raises(ShapeMismatch):
        in_interval(RUN2, b, np.eye(3))
    for bound, candidate, name in (
        (b, [[1.0, 1.0], [0.0, 1.5]], "candidate"),
        ([[3.0, 1.0], [0.0, 3.0]], ONES, "bound"),
    ):
        with pytest.raises(NotHermitian) as exc:
            in_interval(RUN2, bound, candidate)
        assert (type(exc.value), str(exc.value)) == (NotHermitian, f"{name} is not Hermitian within tolerance")


@pytest.mark.parametrize("eps", [1e-9, 1e-7, 1e-6])
def test_a_candidate_is_compared_by_its_hermitian_part(eps):
    # X passes the Hermitian rule at its own scale and its Hermitian part is
    # a_n, an end of the interval; X - a_n is all anti-Hermitian part, which a
    # second Hermitian test at the difference's scale would reject
    p, b, a_n, x = skew_probe(eps)
    assert in_interval(p, b, x)


def test_a_candidate_beyond_the_hermitian_rule_is_still_rejected():
    p, b, a_n, x = skew_probe(1e-5)
    with pytest.raises(NotHermitian, match="candidate"):
        in_interval(p, b, x)


def _interval_probe(s):
    """D = q[:, :4], W = q[:, 4:], T = s q diag(linspace(1, 2, 8)) q†, Ad = T D
    and B = T + s I, for a seeded unitary q."""
    q = random_unitary(rng_for(3030), 8)
    t = nc._herm(s * (q * np.linspace(1.0, 2.0, 8)) @ q.conj().T)
    d, w = q[:, :4], q[:, 4:]
    return PartialOperator(d, t @ d), t, t + s * np.eye(8), d, w


@pytest.mark.parametrize("s", [1.0, 1e3])
@pytest.mark.parametrize("delta", [1e-7, 1e-6, 1e-5])
def test_a_candidate_that_misses_the_action_is_outside(s, delta):
    # X = T + s delta (w v† + v w†) moves X D off Ad by about s delta, past
    # cmp_tol (1 + ||X||_F + ||Ad e_1||), about 6.3e-8 s; it moves the least eigenvalues of X - a_n and a_max - X
    # only at second order in delta, so the Loewner test alone admitted it
    p, t, b, d, w = _interval_probe(s)
    v, u = d[:, :1], w[:, :1]
    e = u @ v.conj().T + v @ u.conj().T
    assert not in_interval(p, b, t + s * delta * e)


@pytest.mark.parametrize("s", [1.0, 1e3])
@pytest.mark.parametrize("delta", [1e-10, 1e-9])
def test_a_candidate_below_a_n_within_psd_tol_is_inside_at_every_scale(s, delta):
    # X = a_n - s delta w w† with w off the domain: X D = Ad, and X >= 0
    # within psd_tol at X's own scale; a test of X - a_n at the difference's
    # scale rejected it at s = 1e3
    p, t, b, d, w = _interval_probe(s)
    x = krein_von_neumann(p).a_n - s * delta * (w[:, 1:2] @ w[:, 1:2].conj().T)
    assert in_interval(p, b, x)


@pytest.mark.parametrize("s", [1.0, 1e3])
@pytest.mark.parametrize("delta", [1e-10, 1e-9])
def test_a_candidate_above_a_max_within_psd_tol_is_inside_at_every_scale(s, delta):
    # X = a_max + s delta w w†, w off the domain and off ran(B D - Ad): X D =
    # Ad, and X <= B within psd_tol at B's scale, the scale a_max rounds at;
    # a test of a_max - X at the difference's scale rejected it at s = 1e3
    p, t, b, d, w = _interval_probe(s)
    x = a_max(p, b).a_max + s * delta * (w[:, 1:2] @ w[:, 1:2].conj().T)
    assert in_interval(p, b, x)


def _agreement_problems(rng, s, basis_scale):
    """(p, T, B, outer scale): three problems T = s P, B = T + s I with P a
    random PSD, then one with a stiff bound: T = s on the one domain vector
    and s 1e12 off it, so ||B|| >> ||Ad|| / ||D||, and X D rounds at
    1e12 ||Ad||.  The domain basis is multiplied by ``basis_scale``."""
    for _ in range(3):
        t = s * random_psd(rng, 8)
        basis = basis_scale * (rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4)))
        yield PartialOperator(basis, t @ basis), t, t + s * np.eye(8), s
    # real, so the 1 x 1 Grams of A and of B D - Ad pass the Hermitian rule
    q = np.linalg.qr(rng.standard_normal((8, 8)))[0].astype(complex)
    t = nc._herm(s * (q * np.r_[1.0, np.full(7, 1e12)]) @ q.conj().T)
    basis = basis_scale * q[:, :1]
    yield PartialOperator(basis, t @ basis), t, t + s * np.eye(8), 1e12 * s


@pytest.mark.parametrize("cfg", [nc.DEFAULT_TOL, nc.STRICT_TOL], ids=["default", "strict"])
@pytest.mark.parametrize("basis_scale", [1.0, 2.0**-30], ids=["D", "D/2^30"])
@pytest.mark.parametrize("k", [-40, 0, 40])
def test_membership_agrees_with_the_loewner_ends_off_the_tolerance_band(k, basis_scale, cfg):
    # the interval theorem: X D = Ad, 0 <= X <= B iff a_n <= X <= a_max.  At
    # 2^-40 the data of the three random problems sit below the tolerance
    # rule's absolute unit, so both rules admit every candidate there
    # (ROADMAP item 3).  X D - Ad is judged per unit domain vector at
    # ||X||_F and B - X at B's scale, the scales they round at, so neither
    # rescaling D nor a stiff bound moves a verdict
    s = 2.0**k
    rng = rng_for(4040 + k)
    for p, t, b, size in _agreement_problems(rng, s, basis_scale):
        interval = a_max(p, b, cfg)
        u = orthonormal_columns(rng, 8, 1)
        inside = [t, interval.a_n, interval.a_max, 0.5 * (interval.a_n + interval.a_max)]
        inside += sample_extensions(p, b, 3, seed=int(rng.integers(1 << 30)), cfg=cfg)
        outside = [t + 0.25 * size * (u @ u.conj().T), b + size * np.eye(8), -size * np.eye(8)]
        for x, want in [(x, True) for x in inside] + [(x, False) for x in outside]:
            want = want or size < 1e-6
            assert in_interval(p, b, x, cfg) == want
            # under the stiff bound a_max rounds at 1e12 s, and the Loewner
            # ends test a_max - T at its own scale s: they reject T
            if size == s or x is not t:
                ends = loewner_leq(interval.a_n, x, cfg) and loewner_leq(x, interval.a_max, cfg)
                assert ends == want


def test_a_candidate_whose_residual_overflows_raises_result_out_of_range():
    # X D - Ad is finite, the norm of its column is not: an infinite residual
    # would pass an infinite scale, so it raises before any comparison
    x = 1e308 * ONES
    with pytest.raises(ResultOutOfRange) as exc:
        in_interval(RUN2, 3 * np.eye(2), x)
    assert str(exc.value) == "residual X D - Ad overflows the float range"


def test_sample_extensions_endpoints_and_determinism():
    b = 3 * np.eye(2)
    s1 = sample_extensions(RUN2, b, 4, seed=7)
    s2 = sample_extensions(RUN2, b, 4, seed=7)
    assert all(np.array_equal(x, y) for x, y in zip(s1, s2))
    for s in s1:
        assert np.allclose(s @ E1, RUN2.action, atol=1e-9)
        assert in_interval(RUN2, b, s)
    degenerate = sample_extensions(RUN2, ONES, 3, seed=1)
    for s in degenerate:
        assert np.allclose(s, ONES, atol=1e-8)


def test_samples_of_an_interval_whose_spread_is_not_psd_raise_not_psd():
    # a_max - a_n = -I: the spread's square root fails, named for the interval
    interval = IntervalResult(a_n=np.eye(2), a_max=0.0 * np.eye(2), degenerate=False)
    with pytest.raises(NotPsd) as exc:
        _samples(interval, 1, 0, nc.DEFAULT_TOL)
    assert str(exc.value) == "interval spread a_max - a_n is not PSD within tolerance"


def test_duality_of_extremes():
    rng = rng_for(51)
    for _ in range(15):
        p = random_partial(rng, force="extendible")
        res = krein_von_neumann(p)
        b = dominating_bound(rng, res.a_n)
        interval = a_max(p, b, nc.DEFAULT_TOL)
        shifted = PartialOperator(p.domain_basis, b @ p.domain_basis - p.action)
        shifted_min = krein_von_neumann(shifted).a_n
        assert nc.fro((b - interval.a_max) - shifted_min) <= 1e-8 * (
            1.0 + nc.fro(shifted_min)
        )


def test_interval_soundness_and_completeness():
    rng = rng_for(62)
    sound = complete = 0
    for _ in range(15):
        p = random_partial(rng, force="extendible")
        b = dominating_bound(rng, krein_von_neumann(p).a_n)
        for s in sample_extensions(p, b, 4, seed=3):
            assert in_interval(p, b, s)
            assert nc.fro(s @ p.domain_basis - p.action) <= 1e-7 * (
                1.0 + nc.fro(p.action)
            )
            sound += 1
        for m in extensions_by_block(rng, p, b, count=4):
            assert in_interval(p, b, m)
            complete += 1
    assert sound >= 40 and complete >= 20


def test_halmos_counterexample():
    report = halmos_complete(np.array([[0.0]]), np.array([[1.0]]))
    assert not report.completable
    assert not report.bounded and math.isinf(report.bound_constant)
    assert not report.range_condition
    assert report.a22_min is None


def test_halmos_identity_block():
    rng = rng_for(73)
    a21 = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    report = halmos_complete(np.eye(3), a21)
    assert report.completable and report.bounded and report.range_condition
    assert np.allclose(report.a22_min, a21 @ a21.conj().T, atol=1e-10)
    assert nc.is_psd(report.completion)


def test_halmos_rank_deficient_rejection():
    report = halmos_complete(np.diag([1.0, 0.0]), np.array([[0.0, 1.0]]))
    assert not report.completable
    assert not report.bounded
    assert not report.range_condition


def test_halmos_column_basis_is_not_rank_tested(monkeypatch):
    # D = [I; 0] has orthonormal columns by construction, singular A11 or not
    rank_tests = []
    for name in ("full_column_rank", "_gram_certifies_rank"):
        test = getattr(nc, name)
        monkeypatch.setattr(nc, name, lambda *a, test=test: rank_tests.append(1) or test(*a))
    for a11 in (np.eye(3), np.diag([1.0, 0.5, 0.0])):
        halmos_complete(a11, np.ones((2, 3)))
    assert rank_tests == []


@pytest.mark.parametrize("lam, solvable", [(5e-11, False), (2e-10, True)])
def test_halmos_criteria_agree_next_to_the_cutoff(lam, solvable):
    # lam at 0.5x and 2x the cutoff rank_rel_eps * lambda_max(A11)
    report = halmos_complete(np.diag([1.0, lam]), np.array([[0.3, 1e-5]]))
    assert report.completable == report.bounded == report.range_condition == solvable


def test_halmos_errors():
    with pytest.raises(NotPsd):
        halmos_complete(np.diag([1.0, -1.0]), np.zeros((1, 2)))
    with pytest.raises(ShapeMismatch):
        halmos_complete(np.eye(2), np.zeros((1, 3)))


@pytest.mark.parametrize(
    "a11, a21",
    [
        # A11 stays above the data-scale cutoff, and A21 moves ker A11 within
        # cmp_tol only; the coupling overflows before the eigensolve of the
        # bound constant
        (2.0**500 * np.diag([1.0, 0.5, 0.0]), 2.0**520 * np.array([[3.0, 2.0, 2.0**-40]])),
        (2.0**500 * np.eye(2), 2.0**520 * np.array([[1.0, 1.0]])),
    ],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # ||A21|| overflows as well
def test_completion_whose_coupling_overflows_raises_result_out_of_range(a11, a21):
    with pytest.raises(ResultOutOfRange) as exc:
        halmos_complete(a11, a21)
    assert str(exc.value) == "coupling A11^{+1/2} A21† A21 A11^{+1/2} overflows the float range"


@pytest.mark.parametrize("s", [1e100, 1e200])
def test_a_column_off_ran_a11_fails_all_three_criteria_past_the_float_range(s):
    # A21 = (0, s) moves ker A11 = span(e2); at 1e200 ||A21||_F overflows
    report = halmos_complete(np.diag([1.0, 0.0]), [[0.0, s]])
    assert (report.completable, report.bounded, report.range_condition) == (False, False, False)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # ||Ad||_F and the gap overflow
def test_a_bound_whose_gap_overflows_raises_result_out_of_range():
    # a_n = 8e307 e1 e1† and B = -1.7e308 I: B - a_n overflows to -inf, which
    # must not reach the eigensolver as a violation of nan
    p = PartialOperator(E1, [[8e307], [0.0]])
    with pytest.raises(ResultOutOfRange) as exc:
        a_max(p, -1.7e308 * np.eye(2))
    assert str(exc.value) == "gap B - a_n overflows the float range"


def test_halmos_three_way_agreement_and_kvn_consistency():
    rng = rng_for(84)
    seen_infeasible = 0
    for _ in range(200):
        k = int(rng.integers(1, 4))
        rows = int(rng.integers(1, 4))
        a11 = random_psd(rng, k, rank=int(rng.integers(0, k + 1)))
        a21 = rng.standard_normal((rows, k)) + 1j * rng.standard_normal((rows, k))
        if rng.uniform() < 0.5:
            # force the range condition so both classes appear
            a21 = a21 @ a11
        report = halmos_complete(a11, a21)
        assert report.completable == report.bounded == report.range_condition
        seen_infeasible += not report.completable
        if report.completable:
            domain = np.zeros((k + rows, k), dtype=complex)
            domain[:k] = np.eye(k)
            p = PartialOperator(domain, np.vstack([a11, a21]))
            a_n = krein_von_neumann(p).a_n
            assert nc.fro(report.completion - a_n) <= 1e-8 * (1.0 + nc.fro(a_n))
            assert loewner_leq(np.zeros_like(a_n), report.completion)
    assert seen_infeasible > 10


def _reference_completion(a11, a21, cfg=nc.DEFAULT_TOL):
    """halmos_complete with the block side on its own eigendecomposition of
    A11: the ||A21||-scaled kernel test (on A21 2^-e, e the exponent of its
    largest entry, where ||A21||_F overflows), the A11^{+1/2} coupling and the range
    condition over the kept eigenvectors; a22_min and the completion from
    the column's embedding j.  Returns what is compared, or the name of the
    error for a coupling that overflows."""
    k = a11.shape[0]
    eig = nc._psd_eigen(a11, cfg)
    kernel = eig.eigenvectors[:, ~nc._above_data_cut(eig.eigenvalues, cfg, a21)]
    scaled, scale, unit = a21, nc.fro(a21), 1.0
    if not math.isfinite(scale):  # decided exactly on A21 2^-e at unit 2^-e
        unit = 2.0 ** -int(np.frexp(np.abs(a21).max())[1])
        scaled = a21 * unit
        scale = nc.fro(scaled)
    images = np.linalg.norm(scaled @ kernel, axis=0)
    bounded = bool(np.max(images, initial=0.0) <= cfg.cmp_tol * (unit + scale))
    bound_constant = math.inf
    if bounded:
        s = nc._sqrt_pinv(eig, cfg)
        coupling = s @ (a21.conj().T @ a21) @ s
        coupling = 0.5 * (coupling + coupling.conj().T)
        if not np.isfinite(coupling).all():
            return "ResultOutOfRange"
        bound_constant = float(np.max(np.linalg.eigvalsh(coupling), initial=0.0))
    range_condition = nc._span_coords(a21.conj().T, nc._kept(eig, cfg)[1], cfg) is not None
    spec = gram_spectrum(_column(a11, a21), cfg)
    a22_min = completion = None
    if spec.extendible:
        a22_min = spec.j[k:] @ spec.j[k:].conj().T
        a22_min = 0.5 * (a22_min + a22_min.conj().T)
        completion = np.block([[a11, a21.conj().T], [a21, a22_min]])
        completion = 0.5 * (completion + completion.conj().T)
    return bounded, bound_constant.hex(), range_condition, _bytes(a22_min), _bytes(completion)


def _column(a11, a21):
    """The partial operator [I; 0] -> [A11; A21] whose Gram matrix is A11."""
    k = a11.shape[0]
    domain = np.zeros((k + a21.shape[0], k), dtype=complex)
    domain[:k] = np.eye(k)
    return PartialOperator(domain, np.vstack([a11, a21]))


def _bytes(m):
    return None if m is None else m.tobytes()


def _completion(a11, a21):
    try:
        rep = halmos_complete(a11, a21)
    except ResultOutOfRange:
        return "ResultOutOfRange"
    return (
        rep.bounded,
        rep.bound_constant.hex(),
        rep.range_condition,
        _bytes(rep.a22_min),
        _bytes(rep.completion),
    )


def _block(rng, kind):
    """A seeded (A11, A21) of the given kind."""
    k = int(rng.integers(1, 6))
    rows = int(rng.integers(1, 4))
    a21 = rng.standard_normal((rows, k)) + 1j * rng.standard_normal((rows, k))
    a11 = random_psd(rng, k, rank=int(rng.integers(0, k + 1)))
    if kind == "rank_deficient":
        a11 = random_psd(rng, k, rank=int(rng.integers(0, k)))
        if rng.uniform() < 0.5:
            a21 = a21 @ a11
    elif kind == "diagonal_zeros":
        # -(diag(-x)) and conj carry -0.0 entries, which G = [I 0] [A11; A21]
        # turns into +0.0
        diag = rng.uniform(0.1, 2.0, k)
        diag[rng.uniform(size=k) < 0.4] = 0.0
        a11 = -np.diag(-diag).astype(complex)
        if rng.uniform() < 0.5:
            a11 = a11.conj()
        if rng.uniform() < 0.5:
            a21[:, diag == 0.0] = 0.0
    elif kind == "planted":
        u = random_unitary(rng, k)
        ev = rng.uniform(0.5, 1.0, k)
        ev[0], ev[-1] = 1.0, 10.0 ** rng.uniform(-11, -7)
        a11 = (u * ev) @ u.conj().T
        a11 = 0.5 * (a11 + a11.conj().T)
    elif kind == "a21_zero":
        a21 = np.zeros_like(a21)
    else:
        a21 = a21 * 2.0**kind
    return nc.as_matrix(a11), a21


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_completion_matches_the_block_side_on_its_own_eigendecomposition():
    # halmos_complete reads its block-side criteria off gram_spectrum's eigh
    # of G = [I 0] [A11; A21]; the reference factors A11 itself.  They agree
    # bit for bit, also where G's zero entries differ from A11's in sign.
    kinds = ["rank_deficient", "diagonal_zeros", "planted", "a21_zero", 500, -500, 900]
    signed_zero_blocks = rescaled_unbounded = 0
    for seed in range(1400):
        rng = rng_for(5000 + seed)
        kind = kinds[seed % len(kinds)]
        a11, a21 = _block(rng, kind)
        # compare the signs of the real and imaginary parts
        a, g = a11.view(float), _column(a11, a21).gram().view(float)
        signed_zero_blocks += bool(np.any(np.signbit(a[a == 0]) != np.signbit(g[a == 0])))
        expected = _reference_completion(a11, a21)
        rescaled_unbounded += kind == 900 and expected[0] is False
        assert _completion(a11, a21) == expected, seed
    assert signed_zero_blocks >= 50
    # every block with A21 scaled by 2^900, whose ||A21||_F overflows, is
    # decided on A21 2^-e: A11 is rounding noise next to A21, so not bounded
    assert rescaled_unbounded == 200
