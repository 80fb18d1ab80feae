"""The rank read-off, the Cholesky rank certificate and the sigma_max brackets
against the SVD rule.

Validation reads the rank of D off the Gram spectrum when it can,
``full_column_rank`` and the data-scale cutoff decide without an SVD when a
certificate can, and each falls back to the SVD otherwise.  The reference
below is the SVD rule itself, applied to every decision; on instances planted
next to each cutoff, and with D and Ad scaled far apart, both give the same
bits.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvnext import PartialOperator, halmos_complete, is_extendible, krein_von_neumann, validate
from kvnext import numcore as nc
from util_gen import orthonormal_columns, random_unitary, rng_for

EPS = nc.DEFAULT_TOL.rank_rel_eps
SCALES = [-1000, -500, 0, 500, 1000]


def svd_full_column_rank(m, cfg=nc.DEFAULT_TOL):
    sv = np.linalg.svd(m, compute_uv=False)
    top = float(np.max(sv, initial=0.0))
    return bool(m.shape[1] <= m.shape[0] and np.all(sv > cfg.rank_rel_eps * top))


def svd_sigma_max(m):
    return float(np.max(np.linalg.svd(m, compute_uv=False), initial=0.0))


def svd_above_data_cut(ev, cfg, *mats, brackets=None):
    # the caller's sigma_max brackets are ignored: every cut is the SVD's
    top = float(np.max(ev, initial=0.0))
    scale = 1.0
    for m in mats:
        scale *= svd_sigma_max(m)
    return ev > cfg.rank_rel_eps * max(top, scale)


def scaled(x, k):
    return x * 2.0**k  # exact, unless it overflows or underflows


def outcomes(dm, ad):
    """What krein_von_neumann and is_extendible return on (dm, ad), as
    comparable values."""
    out = []
    for fn in (krein_von_neumann, is_extendible):
        try:
            res = fn(PartialOperator(dm, ad))
        except Exception as exc:  # the class and message are compared
            out.append((type(exc).__name__, str(exc)))
            continue
        if fn is krein_von_neumann:
            out.append((res.a_n.tobytes(), res.factorization.r, res.norm.hex()))
        else:
            witness = None if res.witness is None else res.witness.tobytes()
            out.append((res.extendible, res.hilbert_bound.hex(), witness))
    return out


def by_svd_rule(fn, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nc, "full_column_rank", svd_full_column_rank)
        mp.setattr(nc, "_above_data_cut", svd_above_data_cut)
        return fn(*args)


def planted(seed, n, d, ratio, mu, leak):
    """D = U diag(1 .. ratio) V† and Ad with D† Ad = W diag(lam, mu) W†; with
    ``leak``, Ad also moves the mu eigenvector off ran D, which G cannot see."""
    rng = rng_for(seed)
    u = orthonormal_columns(rng, n, d)
    v = random_unitary(rng, d)
    s = np.geomspace(1.0, ratio, d)
    w = random_unitary(rng, d)
    lam = rng.uniform(0.5, 2.0, d)
    lam[-1] = mu
    g = (w * lam) @ w.conj().T
    dm = (u * s) @ v.conj().T
    ad = (u / s) @ (v.conj().T @ g)
    if n > d:
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z -= u @ (u.conj().T @ z)
        ad += leak * np.outer(z / np.linalg.norm(z), w[:, -1].conj())
    return dm, ad


def gram_cut(dm, ad):
    """The SVD rule's data-scale cutoff for the operator (dm, ad)."""
    ev = np.linalg.eigvalsh(dm.conj().T @ ad)
    return EPS * max(float(np.max(ev, initial=0.0)), svd_sigma_max(dm) * svd_sigma_max(ad))


def band_middle(dm, ad):
    """The geometric middle of the band the sigma_max brackets leave."""
    (lo_d, hi_d), (lo_a, hi_a) = nc._sigma_max_bracket(dm), nc._sigma_max_bracket(ad)
    return EPS * math.sqrt(lo_d * lo_a * hi_d * hi_a)


# ``scaled`` overflows on purpose: Ad carries entries up to 1 / ratio (about
# 2e10), which 2^1000 takes past the float range.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from([(2, 1), (3, 2), (5, 3), (8, 4), (8, 8), (12, 6)]),
    ratio=st.sampled_from([1.0, 0.5 * EPS, EPS, 2 * EPS, 1e-5, 3e-5, 1e-4]),
    place=st.sampled_from(["bulk", 0.0, 0.5, 1.0, 2.0, "band"]),
    leak=st.sampled_from([0.0, 1e-3, 1.0]),
    kd=st.sampled_from(SCALES),
    ka=st.sampled_from(SCALES),
)
def test_planted_instances_match_the_svd_rule_bit_for_bit(seed, shape, ratio, place, leak, kd, ka):
    n, d = shape
    if place == "bulk":
        mu = 1.0
    else:
        dm, ad = planted(seed, n, d, ratio, 0.0, leak)
        mu = band_middle(dm, ad) if place == "band" else place * gram_cut(dm, ad)
    dm, ad = planted(seed, n, d, ratio, mu, leak)
    dm, ad = scaled(dm, kd), scaled(ad, ka)
    assert outcomes(dm, ad) == by_svd_rule(outcomes, dm, ad)


@pytest.mark.parametrize("kd", SCALES)
@pytest.mark.parametrize("ka", SCALES)
def test_scaled_operators_match_the_svd_rule(kd, ka):
    dm, ad = planted(17, 6, 3, 1.0, 0.0, 1.0)
    dm, ad = scaled(dm, kd), scaled(ad, ka)
    assert outcomes(dm, ad) == by_svd_rule(outcomes, dm, ad)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    place=st.sampled_from([0.0, 0.5, 1.0, 2.0, "band"]),
    k=st.sampled_from(SCALES),
)
def test_kernel_inclusion_matches_the_svd_rule(seed, place, k):
    # A11 = diag(1, 0.5, mu) against A21 = [[0.3, 0.2, 1e-5]], mu planted at
    # the cutoff rank_rel_eps * max(1, ||A21||_2) or inside the bracket band
    rng = rng_for(seed)
    a21 = scaled(np.array([[0.3, 0.2, 1e-5]]) * rng.uniform(0.5, 2.0), k)
    bracket = nc._sigma_max_bracket(a21.astype(complex))
    if place == "band" and bracket is not None:
        mu = EPS * math.sqrt(max(1.0, bracket[0]) * max(1.0, bracket[1]))
    else:
        mu = (1.0 if place == "band" else place) * EPS * max(1.0, svd_sigma_max(a21))
    a11 = np.diag([1.0, 0.5, mu])

    def completion(a11, a21):
        try:
            rep = halmos_complete(a11, a21)
        except Exception as exc:
            return type(exc).__name__, str(exc)
        return rep.completable, rep.bounded, rep.range_condition, rep.bound_constant.hex()

    assert completion(a11, a21) == by_svd_rule(completion, a11, a21)


def test_certificate_and_brackets_decide_the_common_case(monkeypatch):
    # a well-conditioned operator away from every cutoff never reaches the SVD
    def no_svd(*args, **kwargs):
        raise AssertionError("SVD called")

    dm, ad = planted(3, 12, 6, 0.1, 1.0, 0.0)
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    monkeypatch.setattr(np.linalg, "norm", lambda x, ord=None, axis=None, keepdims=False, _f=np.linalg.norm:
                        no_svd() if ord == 2 else _f(x, ord, axis, keepdims))
    assert nc.full_column_rank(dm)
    assert krein_von_neumann(PartialOperator(dm, ad)).factorization.r == 6


def test_sigma_max_bracket_holds_the_svd_value():
    rng = rng_for(11)
    for shape in [(1, 1), (4, 1), (1, 4), (7, 3), (3, 7)]:
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        lo, hi = nc._sigma_max_bracket(x)
        assert lo <= svd_sigma_max(x) * (1 + 1e-12) and svd_sigma_max(x) <= hi * (1 + 1e-12)
    assert nc._sigma_max_bracket(np.zeros((3, 2), dtype=complex)) == (0.0, 0.0)
    assert nc._sigma_max_bracket(np.zeros((3, 0), dtype=complex)) == (0.0, 0.0)
    # squares that overflow or underflow leave no bracket
    assert nc._sigma_max_bracket(np.full((2, 2), 1e200, dtype=complex)) is None
    assert nc._sigma_max_bracket(np.full((2, 2), 1e-300, dtype=complex)) is None


def test_squares_out_of_range_leave_the_decision_to_the_svd():
    # rank one, but the products in D† D fall among the subnormals, where
    # their rounding alone can make D† D - tau tr(D† D) I look positive definite
    d = np.array([[1.6e-162, 3e-162], [0.0, 0.0], [0.0, 0.0]], dtype=complex)
    assert not nc.full_column_rank(d)
    # rank one with D† D overflowing: a Cholesky of an infinite matrix can
    # run to completion
    assert not nc.full_column_rank(np.array([[1e160, 1e160], [0.0, 0.0]], dtype=complex))
    # |x|^2 of 1.7e-162 rounds to 4.9e-324, 1.3 times |x|: a bracket read off
    # it would sit above sigma_max and drop the Gram eigenvalue 1.15e-10 s,
    # which is above the cutoff rank_rel_eps * s
    assert nc._sigma_max_bracket(np.array([[1.7e-162]], dtype=complex)) is None
    s, mu = 1.7e-162, 1.15e-10
    dm = np.array([[s], [0.0]], dtype=complex)
    ad = np.array([[mu], [1.0]], dtype=complex)
    assert outcomes(dm, ad) == by_svd_rule(outcomes, dm, ad)
    assert krein_von_neumann(PartialOperator(dm, ad)).factorization.r == 1


def read_off_instance(seed, n, d, ratio, k):
    """D = U diag(1, .., 1, ratio) V† and Ad = D T, T = V diag(t) V† with t in
    [1, 2]: G = V diag(s^2 t) V† is Hermitian and PSD, and both brackets are
    tight.  Both are scaled by 2^k."""
    rng = rng_for(seed)
    u, v = orthonormal_columns(rng, n, d), random_unitary(rng, d)
    s = np.ones(d)
    s[-1] = ratio
    t = rng.uniform(1.0, 2.0, d)
    dm = (u * s) @ v.conj().T
    return scaled(dm, k), scaled((u * (s * t)) @ v.conj().T, k), t[-1]


def read_off_accepts(dm, ad, cfg):
    eig = nc.hermitian_eigen(dm.conj().T @ ad, cfg)
    brackets = nc._sigma_max_bracket(dm), nc._sigma_max_bracket(ad)
    return nc._gram_certifies_rank(eig.eigenvalues, dm.shape[0], brackets, cfg)


@pytest.mark.parametrize("cfg", [nc.DEFAULT_TOL, nc.STRICT_TOL], ids=["default", "strict"])
@pytest.mark.parametrize("k", [-300, 0, 300])
def test_the_rank_read_off_accepts_only_what_the_svd_rule_accepts(cfg, k):
    accepted = []
    for seed, (n, d) in enumerate([(3, 2), (6, 3), (8, 4), (12, 6), (9, 9)]):
        # w_min = ratio^2 t_d; plant it at `factor` times the read-off's
        # threshold, whose scale ||D||_F ||Ad||_F ratio barely moves
        dm, ad, t_d = read_off_instance(seed, n, d, 0.0, 0)
        cut = 2.0 * cfg.rank_rel_eps + 128.0 * (n + d + 1) * np.finfo(float).eps / 2
        scale = np.linalg.norm(dm) * np.linalg.norm(ad)
        near = [math.sqrt(f * cut * scale / t_d) for f in (0.25, 0.5, 2.0, 4.0)]
        for ratio in [*np.geomspace(1e-13, 1.0, 27), *near]:
            dm, ad, _ = read_off_instance(seed, n, d, ratio, k)
            by_svd = svd_full_column_rank(dm, cfg)
            accepts = read_off_accepts(dm, ad, cfg)
            assert by_svd or not accepts, (n, d, ratio)
            if ratio in near:
                assert accepts == (near.index(ratio) >= 2), (n, d, ratio)
            # the verdict of validation is the SVD rule's
            failures = validate(PartialOperator(dm, ad), cfg).failures
            assert failures == (() if by_svd else ("rank_deficient_domain",))
            accepted.append(accepts)
    assert any(accepted) and not all(accepted)


@pytest.mark.parametrize("deficient", [False, True])
@pytest.mark.parametrize("gram", ["psd", "non_hermitian", "non_psd"])
def test_validation_lists_its_failures_rank_first(deficient, gram):
    # G = D† T D with D = [e1, e2, e3], or [e1, e2, e1] when rank deficient
    dm = np.eye(4, 3, dtype=complex)
    if deficient:
        dm[:, 2] = dm[:, 0]
    t = {
        "psd": np.diag([1.0, 2.0, 3.0, 4.0]),
        "non_hermitian": np.eye(4) + np.triu(np.ones((4, 4)), 1),
        "non_psd": np.diag([-1.0, 2.0, 3.0, 4.0]),
    }[gram]
    gram_failure = {"psd": (), "non_hermitian": ("non_hermitian_gram",), "non_psd": ("non_psd_gram",)}
    want = ("rank_deficient_domain",) * deficient + gram_failure[gram]
    report = validate(PartialOperator(dm, t @ dm))
    assert (report.ok, report.failures) == (not want, want)
