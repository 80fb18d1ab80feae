"""The Cholesky PSD certificate against the eigvalsh rule.

``is_psd`` (and through it ``loewner_leq`` and ``in_interval``) and the
bound check of ``extension_set._interval`` accept without ``eigvalsh``
when one Cholesky proves what the rule would decide.  The reference below
is the rule itself: the same calls with the certificate switched off, so
that ``eigvalsh`` decides every test.  On spectra planted next to each
threshold, on exactly singular differences T - a_n, on edge shapes and
with data scaled by 2^+-500, under both tolerance profiles, both give the
same verdicts, exceptions, messages and warnings.
"""

import warnings

import numpy as np
import pytest

from kvnext import PartialOperator, a_max, in_interval, krein_von_neumann
from kvnext import numcore as nc
from kvnext.errors import ResultOutOfRange
from util_gen import orthonormal_columns, random_psd, random_unitary, rng_for

TOLS = [nc.DEFAULT_TOL, nc.STRICT_TOL]
SCALES = [-500, 0, 500]
# relative offsets 2^-k from a threshold, on both sides
OFFSETS = [s * 2.0**-k for k in (1, 8, 24, 40, 52) for s in (1.0, -1.0)]


def outcome(fn, *args):
    """What fn(*args) returns or raises, and the warnings it emits, as
    comparable values."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            out = fn(*args)
        except Exception as exc:  # the class, message and certificate are compared
            cert = getattr(exc, "certificate", None)
            out = (type(exc).__name__, str(exc), None if cert is None else cert.tobytes())
    if hasattr(out, "a_max"):
        out = (out.a_n.tobytes(), out.a_max.tobytes(), out.degenerate)
    return out, [str(w.message) for w in seen if not issubclass(w.category, RuntimeWarning)]


def by_eigvalsh_rule(fn, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nc, "_cholesky_certifies_psd", lambda h, psd_tol: False)
        return outcome(fn, *args)


def assert_rule(fn, *args):
    assert outcome(fn, *args) == by_eigvalsh_rule(fn, *args)


def planted(seed, n, top, low):
    """Hermitian Q diag(w) Q† with max w = top and min w = low (n >= 2)."""
    rng = rng_for(seed)
    q = random_unitary(rng, n)
    w = rng.uniform(0.0, top, n)
    w[0], w[-1] = top, low
    h = (q * w) @ q.conj().T
    return 0.5 * (h + h.conj().T)


def at_threshold(top, psd_tol, offset):
    """An eigenvalue offset relatively from -psd_tol (1 + max|w|) for a
    spectrum whose other eigenvalues lie in [0, top]."""
    low = -psd_tol * (1.0 + top) * (1.0 + offset)
    if -low > top:  # the planted eigenvalue is then the largest in magnitude
        low = -psd_tol * (1.0 + offset) / (1.0 - psd_tol * (1.0 + offset))
    return low


@pytest.mark.parametrize("cfg", TOLS, ids=["default", "strict"])
@pytest.mark.parametrize("k", SCALES)
def test_planted_spectra_match_the_eigvalsh_rule(cfg, k):
    # at n = 128 under STRICT_TOL the certificate falls back to floor 0
    for n in (2, 5, 16, 32, 128):
        top = 2.0**k
        for i, offset in enumerate(OFFSETS):
            h = planted(100 * n + i, n, top, at_threshold(top, cfg.psd_tol, offset))
            assert_rule(nc.is_psd, h, cfg)
            base = planted(7 * n + i, n, top, -top)
            assert_rule(nc.loewner_leq, base, base + h, cfg)
        # clearly PSD, singular and clearly indefinite spectra
        for low in (top, 0.0, -top):
            assert_rule(nc.is_psd, planted(n, n, top, low), cfg)


def bounded_problem(seed, n, d, rank):
    """(p, T, a_n): T PSD of the given rank, p its restriction to a random
    d-dimensional domain, a_n its minimal extension."""
    rng = rng_for(seed)
    t = random_psd(rng, n, rank)
    basis = orthonormal_columns(rng, n, d)
    p = PartialOperator(basis, t @ basis)
    return p, t, krein_von_neumann(p).a_n


@pytest.mark.parametrize("cfg", TOLS, ids=["default", "strict"])
@pytest.mark.parametrize("k", SCALES)
def test_bound_check_matches_the_eigvalsh_rule(cfg, k):
    # B - a_n with its smallest eigenvalue planted just above or below 0, or
    # exactly singular: B = a_n + P with P PSD of low rank
    for n, d, rank in ((2, 1, 1), (6, 3, 2), (12, 6, 12), (24, 12, 6)):
        p, t, a_n = bounded_problem(n, n, d, rank)
        p = PartialOperator(p.domain_basis, p.action * 2.0**k)
        a_n = a_n * 2.0**k
        top = 2.0**k * max(1.0, float(np.max(np.abs(a_n)) * 2.0**-k))
        for i, offset in enumerate([0.0] + OFFSETS):
            low = offset * top * 1e-15  # 0, or tiny of either sign
            assert_rule(a_max, p, a_n + planted(n + i, n, top, low), cfg)
        rng = rng_for(n)
        for r in (1, n // 2):
            assert_rule(a_max, p, a_n + random_psd(rng, n, r) * 2.0**k, cfg)
        assert_rule(a_max, p, a_n, cfg)
        assert_rule(a_max, p, a_n - 2.0**k * 1e-3 * np.eye(n), cfg)


@pytest.mark.parametrize("cfg", TOLS, ids=["default", "strict"])
@pytest.mark.parametrize("k", SCALES)
def test_singular_differences_match_the_eigvalsh_rule(cfg, k):
    # T - a_n is exactly singular on the domain, the common in-interval case
    for n, d, rank in ((3, 1, 2), (8, 4, 8), (16, 8, 4), (32, 16, 32)):
        p, t, a_n = bounded_problem(10 + n, n, d, rank)
        p = PartialOperator(p.domain_basis, p.action * 2.0**k)
        t, a_n = t * 2.0**k, a_n * 2.0**k
        b = t + random_psd(rng_for(n), n, max(n // 4, 1)) * 2.0**k + 2.0**k * 0.5 * np.eye(n)
        assert_rule(nc.is_psd, t - a_n, cfg)
        assert_rule(nc.loewner_leq, a_n, t, cfg)
        top = a_max(p, b, cfg).a_max
        u = orthonormal_columns(rng_for(n), n, 1)
        for x in (t, a_n, top, 0.5 * (t + top), t + 2.0**k * 0.25 * (u @ u.conj().T), t - 2.0**k * 1e-12 * np.eye(n)):
            assert_rule(in_interval, p, b, x, cfg)


def test_subnormal_gaps_match_the_eigvalsh_rule():
    # singular PSD bounds among the subnormals, over a_n = 0: rounding there
    # is absolute, and a Cholesky of an unshifted B often runs to completion
    # while eigvalsh returns a negative eigenvalue
    rng = rng_for(8)
    zero = PartialOperator(np.eye(4, 1), np.zeros((4, 1)))
    for _ in range(300):
        b = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        h = (b @ b.conj().T) * 2.0 ** -int(rng.integers(1000, 1070))
        assert_rule(a_max, zero, 0.5 * (h + h.conj().T), nc.DEFAULT_TOL)


@pytest.mark.parametrize("cfg", TOLS, ids=["default", "strict"])
def test_edge_shapes_match_the_eigvalsh_rule(cfg):
    tiny = cfg.psd_tol
    for x in (0.0, 1.0, -1.0, 2.0**-600, -(2.0**-600), 2.0**600, -tiny, -tiny * (1 + 2**-40), -tiny * (1 - 2**-40)):
        assert_rule(nc.is_psd, np.array([[x]]), cfg)
        assert_rule(nc.loewner_leq, np.array([[x]]), np.zeros((1, 1)), cfg)
    for n in (0, 1, 4):
        assert_rule(nc.is_psd, np.zeros((n, n)), cfg)
        assert_rule(nc.loewner_leq, np.zeros((n, n)), np.zeros((n, n)), cfg)
    p = PartialOperator(np.array([[1.0]]), np.array([[2.0]]))
    for b in (2.0, 2.0 + 1e-300, 3.0, 2.0 - 1e-12, 1.0):
        assert_rule(a_max, p, np.array([[b]]), cfg)
        for x in (2.0, 2.5, 3.0, 1.0):
            assert_rule(in_interval, p, np.array([[b]]), np.array([[x]]), cfg)
    # a non-Hermitian candidate is rejected by the one symmetry test
    assert_rule(in_interval, p, np.array([[3.0]]), np.array([[2.0 + 1j]]), cfg)


def test_certificate_decides_the_common_case(lapack_calls):
    rng = rng_for(5)
    h = random_psd(rng, 40, 20)  # exactly singular
    assert nc.is_psd(h)
    assert (lapack_calls["eigvalsh"], lapack_calls["cholesky"]) == (0, 1)
    lapack_calls.clear()
    assert not nc.is_psd(h - 1e-3 * np.eye(40))
    assert (lapack_calls["eigvalsh"], lapack_calls["cholesky"]) == (1, 1)


def test_the_strict_profile_decides_a_clear_case_by_certificate(lapack_calls):
    # at n = 128 the floor under STRICT_TOL is too close to 0 for the
    # certificate at psd_tol; the one at floor 0 accepts instead
    rng = rng_for(128)
    t = random_psd(rng, 128, 128) + 0.1 * np.eye(128)
    d = orthonormal_columns(rng, 128, 64)
    p, b = PartialOperator(d, t @ d), 10.0 * np.linalg.norm(t, 2) * np.eye(128)
    lapack_calls.clear()
    assert nc.is_psd(t, nc.STRICT_TOL)
    assert (lapack_calls["eigvalsh"], lapack_calls["cholesky"]) == (0, 1)
    lapack_calls.clear()
    assert in_interval(p, b, t, nc.STRICT_TOL)
    assert lapack_calls["eigvalsh"] == 0


@pytest.mark.parametrize(
    "fn, args",
    [
        (nc.is_psd, (-1e308 * np.ones((2, 2)),)),
        (nc.loewner_leq, (1e308 * np.ones((2, 2)), 3.0 * np.eye(2))),
    ],
    ids=["is_psd", "loewner_leq"],
)
def test_an_overflowed_spectrum_decides_nothing(fn, args):
    # eigvalsh returns -inf, which the rule would pass at max|w| = inf
    with pytest.raises(ResultOutOfRange, match="spectrum overflows"):
        fn(*args)


def test_certificate_restores_the_diagonal_and_keeps_its_guards():
    rng = rng_for(6)
    for m in (random_psd(rng, 6, 3), -random_psd(rng, 6, 3)):
        h = m.copy()
        nc._cholesky_certifies_psd(h, 1e-9)
        assert h.tobytes() == m.tobytes()
    assert nc._cholesky_certifies_psd(random_psd(rng, 6, 3), 1e-9)
    # empty, too large, a norm that overflows or underflows: skipped
    assert not nc._cholesky_certifies_psd(np.zeros((0, 0), dtype=complex), 1e-9)
    assert not nc._cholesky_certifies_psd(np.eye(1025, dtype=complex), 1e-9)
    assert not nc._cholesky_certifies_psd(np.eye(3, dtype=complex) * 2.0**600, 1e-9)
    assert not nc._cholesky_certifies_psd(np.eye(3, dtype=complex) * 2.0**-600, 1e-9)
    # with psd_tol = 0 only a clearly positive definite matrix passes
    assert nc._cholesky_certifies_psd(np.eye(3, dtype=complex), 0.0)
    assert not nc._cholesky_certifies_psd(random_psd(rng, 6, 3), 0.0)


@pytest.mark.parametrize("cfg", TOLS, ids=["default", "strict"])
@pytest.mark.parametrize("k", SCALES)
def test_spectra_around_the_refuting_shift_match_the_eigvalsh_rule(cfg, k):
    # c: the rule's floor at max|w| <= ||h||_F + e, the eigensolver allowance
    # e and Demmel's term, below which a failed Cholesky of h + c I would
    # prove that the rule rejects h
    u = np.finfo(float).eps / 2
    for n in (2, 5, 16, 64):
        top = 2.0**k
        f = nc.fro(planted(n, n, top, 0.0))
        e = 32 * (n + 1) * u * f
        c = 1.25 * (cfg.psd_tol * (1 + f + e) + e + 4.2 * (n + 1) ** 2 * u * f)
        for i, ratio in enumerate((0.25, 0.5, 0.8, 1.0, 1.25, 2.0, 4.0)):
            assert_rule(nc.is_psd, planted(300 * n + i, n, top, -ratio * c), cfg)
