"""Dense complex linear-algebra primitives with a shared tolerance policy.

Conventions used across the package:

* Matrices are dense ``numpy`` arrays of ``complex128``, row-major.
* The ambient spaces are C^n paired by the canonical anti-duality
  ``<f, x> = sum_i f[i] * conj(x[i])`` (linear in ``f``, conjugate linear
  in ``x``), so adjoints are plain conjugate transposes.
* Rank decisions are relative: an eigenvalue counts as nonzero when it
  exceeds ``rank_rel_eps`` times the largest eigenvalue (:func:`_kept`).
  Gram matrices of partial operators scale the cutoff by the data
  instead; see ``partial_op.gram_spectrum``.
* Every tolerance test is one rule, :func:`_within`: a residual passes when
  it is at most ``tol * (1 + scale)``, ``tol`` being ``cmp_tol`` or
  ``psd_tol`` and ``scale`` the norm the residual's rounding grows with.
  Positivity is its PSD form, ``-min eig <= psd_tol * (1 + max|eig|)``
  (:func:`spectrum_is_psd`), which absorbs eigensolver noise; :func:`_psd_rule`
  accepts by one certificate, a Cholesky of a shifted matrix that runs to
  completion, and else ``eigvalsh`` decides.

Every function is pure and deterministic for a fixed input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, NotPsd, NotSquare, ResultOutOfRange, ShapeMismatch


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical policy shared by all modules.

    rank_rel_eps: relative eigenvalue cutoff for numerical rank
    psd_tol:      allowed negative eigenvalue magnitude, relative to scale
    cmp_tol:      entrywise / residual comparison tolerance
    """

    rank_rel_eps: float = 1e-10
    psd_tol: float = 1e-9
    cmp_tol: float = 1e-8

    def __post_init__(self):
        for name in ("rank_rel_eps", "psd_tol", "cmp_tol"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ValueError(f"{name} must lie strictly between 0 and 1, got {v}")


DEFAULT_TOL = ToleranceConfig()
STRICT_TOL = ToleranceConfig(rank_rel_eps=1e-12, psd_tol=1e-11, cmp_tol=1e-10)


@dataclass(frozen=True)
class HermitianEigen:
    """Spectral decomposition M = V diag(w) V†, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-d complex array (1-d input becomes a column)."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-dimensional, got ndim={a.ndim}")
    if a.size and not np.isfinite(a).all():
        raise ShapeMismatch(f"{name} contains non-finite entries")
    return a


def as_vector(v, name: str = "vector") -> np.ndarray:
    a = np.asarray(v, dtype=np.complex128).reshape(-1)
    if a.size and not np.isfinite(a).all():
        raise ShapeMismatch(f"{name} contains non-finite entries")
    return a


def fro(m: np.ndarray) -> float:
    """||m||_F as ``np.linalg.norm(m)`` forms it, bit for bit, without its
    dispatch: the real and imaginary parts' dots (0 for a real array)."""
    x = m.ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _norms(x: np.ndarray, axis: int) -> np.ndarray:
    """``np.linalg.norm(x, axis=axis)`` bit for bit, without its dispatch."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=axis))


def _finite(x: np.ndarray, what: str) -> np.ndarray:
    """``x``, or ResultOutOfRange when an entry of ``what`` is not finite."""
    if not np.isfinite(x).all():
        raise ResultOutOfRange(f"{what} overflows the float range")
    return x


def _require_square(m: np.ndarray, name: str) -> None:
    if m.shape[0] != m.shape[1]:
        raise NotSquare(f"{name} must be square, got shape {m.shape}")


def _adjoint(x: np.ndarray) -> np.ndarray:
    """x† as a fresh C-contiguous array: one strided copy, conjugated in place."""
    t = np.swapaxes(x, -1, -2).copy()
    np.conjugate(t, out=t)
    return t


def _herm(x: np.ndarray, adj: np.ndarray | None = None) -> np.ndarray:
    """The Hermitian part 0.5 * (x + x.conj().T) of x or of each matrix of a
    stack, bit for bit, accumulated in place into ``adj`` (x†, formed here
    when not given; it is overwritten)."""
    h = _adjoint(x) if adj is None else adj
    h += x
    h *= 0.5
    return h


def _within(residual, scale, tol: float, unit=1.0):
    """The tolerance rule residual <= tol * (unit + scale), entry by entry on
    arrays; ``unit`` is 1 except on data rescaled by 2^-e, where it is 2^-e.
    NaN never passes; an infinite residual passes only an infinite scale, so
    callers whose norms can overflow decide that case first."""
    return residual <= tol * (unit + scale)


def hermitian_residual(m: np.ndarray) -> float:
    """||m - m†||_F."""
    r = _adjoint(m)
    np.subtract(m, r, out=r)
    return fro(r)


def is_hermitian(m, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    return _checked_herm(as_matrix(m), cfg)[1] is not None


def _hermitian_within(a: np.ndarray, residual: float, scale: float, cfg: ToleranceConfig) -> bool:
    """The Hermitian rule ||a - a†||_F <= cmp_tol (1 + ||a||_F), ``residual``
    and ``scale`` being the two norms.  Where the threshold overflows, the
    same rule is decided on a 2^-e, e the exponent of the largest entry of
    a: the scaling is exact and no norm of the scaled matrix overflows."""
    if math.isfinite(scale):
        return _within(residual, scale, cfg.cmp_tol)
    s, e = _pow2_scaled(a.copy())
    return _within(hermitian_residual(s), fro(s), cfg.cmp_tol, math.ldexp(1.0, -e))


def _pow2_scaled(m: np.ndarray) -> tuple[np.ndarray, int]:
    """(m times 2^-e, in place; e), e the exponent that brings the largest
    entry of m into [1/2, 1): exact, and the square of the result cannot
    overflow."""
    _, exp = np.frexp(np.abs(m).max())
    for part in (m.real, m.imag) if np.iscomplexobj(m) else (m,):
        np.ldexp(part, -exp, out=part)
    return m, int(exp)


def spectrum_is_psd(w: np.ndarray, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether eigenvalues ``w`` pass min w >= -psd_tol * (1 + max|w|)."""
    if w.size == 0:
        return True
    return _within(-float(w.min()), float(np.abs(w).max()), cfg.psd_tol)


def hermitian_eigen(m, cfg: ToleranceConfig = DEFAULT_TOL) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    The input is symmetrized before factorization so that the result is a
    function of the Hermitian part only; inputs whose anti-Hermitian part
    exceeds ``cmp_tol`` relative are rejected.
    """
    residual, h = _checked_herm(as_matrix(m), cfg)
    if h is None:
        raise NotHermitian(f"symmetry residual {residual:.3e} exceeds tolerance")
    return _eigh(h)


def _eigh(h: np.ndarray) -> HermitianEigen:
    """``eigh`` of a matrix already exactly Hermitian, with no test of its own."""
    return HermitianEigen(*np.linalg.eigh(h))


def _checked_herm(a: np.ndarray, cfg: ToleranceConfig) -> tuple[float, np.ndarray | None]:
    """(||a - a†||_F, Hermitian part of ``a``), the part None when
    :func:`is_hermitian` rejects ``a``; a† is formed once for both.  The part
    is a/2 + a†/2 where ||a||_F >= 2^1023, as only there can a + a† overflow."""
    _require_square(a, "matrix")
    adj = _adjoint(a)
    with np.errstate(over="ignore"):  # both norms are tested by the rule
        residual, scale = fro(a - adj), fro(a)
        if not _hermitian_within(a, residual, scale, cfg):
            return residual, None
    return residual, _herm(a, adj) if scale < 2.0**1023 else 0.5 * a + 0.5 * adj


def _hermitian_part(a: np.ndarray, name: str, cfg: ToleranceConfig) -> np.ndarray:
    """:func:`_checked_herm`'s Hermitian part of ``a``, or NotHermitian naming ``a``."""
    h = _checked_herm(a, cfg)[1]
    if h is None:
        raise NotHermitian(f"{name} is not Hermitian within tolerance")
    return h


# Rank certificate.  Let M = fl(m† m), t = tr M and u the unit roundoff.
# If the Cholesky factorization of M - tau t I runs to completion, then
# lambda_min(m† m) >= (tau - slack) t, where slack bounds three roundings:
#   * the product: fl(m† m) = m† m + E with |E| <= sqrt(2) gamma_2n |m|†|m|
#     (the real and imaginary parts of a complex inner product are real
#     inner products of length 2n), so ||E||_2 <= 2.9 n u t;
#   * the shift of the diagonal: at most u (1 + tau) t;
#   * the factorization: R† R = A + dA with |dA| <= gamma_{d+1} |R†| |R|
#     (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
#     Thm 10.3; complex arithmetic at most quadruples the constant), and
#     || |R†| |R| ||_2 <= ||R||_F^2 = tr(A + dA), so ||dA||_2 <= 4.1 (d + 1) u t.
# Their sum, with every gamma_k = k u / (1 - k u) at k u <= 1e-9, stays below
# slack = 8 (n + d + 2) u.  Entries whose products underflow
# add at most n d 2^-1074 in absolute terms, below u t once t >= 2^-500; and
# with t <= 2^1000 no partial sum of an entry, each at most t (1 + n u) in
# magnitude, overflows, so every entry of M is finite.
# With slack <= tau / 4 and sigma_max(m)^2 <= ||m||_F^2 <= (1 + 3 (n + d) u) t,
# sigma_min / sigma_max >= sqrt(tau / 2) = 2^-15.5, about 2.2e-5.  LAPACK's
# singular values are within p(n, d) u sigma_max of the exact ones, p a
# modestly growing function (LAPACK Users' Guide, sec. 4.9); while that is
# below a quarter of the proven ratio, the computed ratio exceeds
# sqrt(tau / 8), so the SVD rule below passes whenever rank_rel_eps <=
# sqrt(tau / 8).  Larger rank_rel_eps, or sizes at which slack > tau / 4,
# skip the certificate.
_RANK_TAU = 2.0**-30
_RANK_EPS_MAX = math.sqrt(_RANK_TAU / 8)
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_TINY = np.finfo(np.float64).tiny


def _cholesky_certifies_rank(m: np.ndarray, cfg: ToleranceConfig) -> bool:
    """Whether one Cholesky of m† m - tau tr(m† m) I proves that the SVD rule
    of :func:`full_column_rank` accepts ``m`` (see the bound above)."""
    n, d = m.shape
    if (
        d > n
        or 8.0 * (n + d + 2) * _UNIT_ROUNDOFF > _RANK_TAU / 4
        or cfg.rank_rel_eps > _RANK_EPS_MAX
    ):
        return False
    with np.errstate(over="ignore", invalid="ignore"):  # tested just below
        mm = m.conj().T @ m
    t = float(mm.diagonal().real.sum())
    if not 2.0**-500 <= t <= 2.0**1000:  # also false for a NaN trace
        return False
    return _shifted_cholesky_runs(mm, -_RANK_TAU * t)


def _shifted_cholesky_runs(h: np.ndarray, c: float) -> bool:
    """Whether the Cholesky factorization of h + c I runs to completion.
    ``h`` is shifted in place and its diagonal restored bit for bit."""
    step = h.shape[0] + 1
    diag = h.flat[::step]  # a copy
    h.flat[::step] = diag + c
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    finally:
        h.flat[::step] = diag
    return True


def full_column_rank(m: np.ndarray, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether the columns of ``m`` are independent.

    The rule: each singular value of ``m`` must exceed rank_rel_eps *
    sigma_max (not squared: these are not eigenvalues of m† m).  More
    columns than rows always fail, since the SVD then returns one value per
    row only.  A Cholesky certificate accepts well-conditioned ``m``
    without the SVD; the SVD runs only when the certificate cannot decide,
    so the verdict is the rule's either way.
    """
    if _cholesky_certifies_rank(m, cfg):
        return True
    sv = np.linalg.svd(m, compute_uv=False)
    top = float(sv.max(initial=0.0))
    return bool(m.shape[1] <= m.shape[0] and (sv > cfg.rank_rel_eps * top).all())


# Rank read-off.  Let D and Ad be n x d with d <= n, G = D† Ad, u the unit
# roundoff and F = ||D||_F ||Ad||_F.  Validation computes fl(G), its
# Hermitian part H and w = eigh(H); three roundings separate w from the
# eigenvalues of herm G:
#   * the product: fl(G) = G + E with |E| <= sqrt(2) gamma_2n |D|†|Ad|, as in
#     the rank certificate, so ||E||_2 <= 2.9 n u F;
#   * the symmetrization: one rounding per entry, at most 2 u ||fl(G)||_F <=
#     2.1 u F, since ||G||_F <= F;
#   * the eigensolver: w within 32 (d + 1) u ||H||_F <= 32.1 (d + 1) u F of
#     the eigenvalues of H, the allowance of the PSD certificate below (and,
#     as there, d <= 1024).
# So lambda_min(herm G) >= w_min - 36 (n + d + 1) u F.  For a square M and x
# a right singular vector of sigma_min(M), lambda_min(herm M) <= Re x† M x
# <= ||M x|| = sigma_min(M); and sigma_d(D† Ad) <= sigma_d(D) sigma_1(Ad)
# (Horn & Johnson, Topics in Matrix Analysis, Thm 3.3.16).  With
# F >= sigma_max(D) sigma_max(Ad), a spectrum with
#     w_min > (2 rank_rel_eps + 128 (n + d + 1) u) F
# proves sigma_min(D) > (rank_rel_eps + 64 (n + d) u) sigma_max(D): the
# margins (2 over 1, 128 over 36 + 64) absorb the rounding of the computed F,
# the product of two _sigma_max_bracket ends, at most 2 (n + d + 2) u
# relative.  LAPACK's singular values lie within p(n, d) u sigma_max of the
# exact ones (LAPACK Users' Guide, sec. 4.9); with the allowance
# p = 32 (n + d), the computed sigma_min then exceeds rank_rel_eps times the
# computed sigma_max, so the SVD rule of full_column_rank accepts D.  The
# brackets exist only where no square of an entry overflows and each norm is
# 0 or at least 2^-400.  A zero norm makes fl(G) = 0, which no w_min clears;
# otherwise underflow in fl(G) adds at most 2 n d 2^-1074, below u F.


def _gram_certifies_rank(w: np.ndarray, n: int, brackets, cfg: ToleranceConfig) -> bool:
    """Whether eigenvalues ``w`` of herm(D† Ad), D with ``n`` rows and ``brackets``
    those of D and Ad, prove that :func:`full_column_rank` accepts D (see above)."""
    if not 0 < w.size <= min(n, _PSD_MAX_N) or None in brackets:
        return False
    f = brackets[0][1] * brackets[1][1]
    return bool(w[0] > (2.0 * cfg.rank_rel_eps + 128.0 * (n + w.size + 1) * _UNIT_ROUNDOFF) * f)


# Data-scale cutoff.  Relative slack granted between an end of
# _sigma_max_bracket and LAPACK's sigma_max: both carry rounding errors of a
# modest multiple of (n + d) u, many orders of magnitude below this.
_SIGMA_REL = 1e-6


def _sigma_max_bracket(x: np.ndarray) -> tuple[float, float] | None:
    """(lo, hi) with lo <= sigma_max(x) <= hi up to rounding, in O(nd):
    lo = max(largest column norm, ||x||_F / sqrt(min(n, d))), hi = ||x||_F.

    None when the squares of the entries overflow, or sum to less than
    2^-800 for a nonzero ``x``, so that underflow may have lost them.
    """
    with np.errstate(over="ignore", under="ignore"):  # tested just below
        col = _norms(x, 0)
        ss = float(col @ col)
    if not 2.0**-800 <= ss < math.inf:
        return None if x.any() else (0.0, 0.0)
    fro = math.sqrt(ss)
    return max(float(col.max()), fro / math.sqrt(min(x.shape))), fro


def _above_data_cut(
    ev: np.ndarray, cfg: ToleranceConfig, *mats: np.ndarray, brackets=None
) -> np.ndarray:
    """Mask of the eigenvalues ``ev`` above rank_rel_eps * max(top, scale),
    with top = max(ev, 0) and scale the product of sigma_max over ``mats``.

    The sigma_max are first bracketed (:func:`_sigma_max_bracket`, or
    ``brackets`` when the caller holds those of ``mats``); an
    eigenvalue outside the band that the brackets leave for the cutoff,
    widened by _SIGMA_REL, is decided by the band.  Only when one falls
    inside it, or a bracket is missing or not finite, is the scale
    computed by SVD.  The mask is the SVD cutoff's either way.
    """
    top = float(ev.max(initial=0.0))
    eps = cfg.rank_rel_eps
    brackets = brackets or [_sigma_max_bracket(m) for m in mats]
    if None not in brackets:
        low = eps * max(top, math.prod(b[0] for b in brackets)) * (1.0 - _SIGMA_REL)
        high = eps * max(top, math.prod(b[1] for b in brackets)) * (1.0 + _SIGMA_REL)
        keep = ev > high
        # No eigenvalue lies in (low, high] when as many exceed low as exceed
        # high.  Below _TINY, rounding is no longer relative and could lift
        # low above the SVD cutoff.
        if _TINY <= low and high < math.inf and np.count_nonzero(ev > low) == np.count_nonzero(keep):
            return keep
    scale = 1.0
    for m in mats:
        scale *= float(np.linalg.norm(m, 2)) if m.size else 0.0
    return ev > eps * max(top, scale)


def _split(eig: HermitianEigen, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lam, u, rest): the eigenpairs selected by the mask ``keep``, in
    descending order, and the other eigenvectors."""
    lam = eig.eigenvalues[keep][::-1].copy()
    u = eig.eigenvectors[:, keep][:, ::-1].copy()
    return lam, u, eig.eigenvectors[:, ~keep].copy()


def _kept(eig: HermitianEigen, cfg: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs above rank_rel_eps * max(largest eigenvalue, 0), descending."""
    top = float(eig.eigenvalues.max(initial=0.0))
    return _split(eig, eig.eigenvalues > cfg.rank_rel_eps * top)[:2]


def _kernel_witness(m: np.ndarray, vecs: np.ndarray, cfg: ToleranceConfig) -> np.ndarray | None:
    """The normalized image m v of the column v of ``vecs`` that ``m`` moves
    most, when ``||m v||`` fails :func:`_within` at ``||m||_F``; else None."""
    images = m @ vecs
    norms = _norms(images, 0)
    if _within(norms.max(initial=0.0), fro(m), cfg.cmp_tol):
        return None
    y = images[:, int(norms.argmax())]
    return y / np.linalg.norm(y)


# PSD certificate.  Let h be an exactly Hermitian n x n matrix, f = ||h||_F,
# s = sum_i |h_ii| and u the unit roundoff.  eigvalsh(h) returns w within
# e := p(n) u f >= p(n) u ||h||_2 of the exact eigenvalues.  LAPACK bounds
# this error by p(n) u ||h||_2, p a modestly growing function (LAPACK Users'
# Guide, sec. 4.7); p(n) = 32 (n + 1) is an allowance, not a theorem.  On
# this build the differences between eigvalsh of h, of a permutation of h
# and of its real 2n x 2n form stay below 12 u ||h||_2 for n <= 8 and below
# 6 sqrt(n) u ||h||_2 up to n = 1024, past which the certificate is skipped.
# Since ||h||_2 >= f / sqrt(n), max|w| >= L := f / sqrt(n) - e, and the rule
# of spectrum_is_psd passes when every w >= floor := -psd_tol (1 + L).
# If the Cholesky factorization of A = fl(h - c I) runs to completion, then
# lambda_min(h) >= c - slack(c), with slack(c) bounding two roundings:
#   * the shift of the diagonal: at most u (f + |c|);
#   * the factorization: R† R = A + dA with |dA| <= gamma_{n+1} |R†| |R|
#     (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
#     Thm 10.3; complex arithmetic at most quadruples the constant), and
#     || |R†| |R| ||_2 <= ||R||_F^2 = tr(A + dA) <= tr A / (1 - 4 gamma_{n+1}),
#     tr A <= (1 + u) (s + n |c|), so ||dA||_2 <= 4.1 (n + 1) u (s + n |c|).
# Their sum stays below 4.2 (n + 1) u (f + s + (n + 1) |c|), and then every
# w >= c - slack(c) - e.  The code takes L = 0.99 f / sqrt(n) - e (at least
# 0) and c = floor + S with
#     S = 1.25 (e + 5 (n + 1) u (f + s + (n + 2) |floor|)).
# For n <= 1024, |c| <= |floor| + S <= (1 + 1e-9) |floor| + 6e-12 (f + s), so
# S - slack(c) - e >= 0.25 e + 2 (n + 1) u (f + s) + 20 u |floor|.  That
# remainder exceeds the rounding made in forming f, s, L and c and in the
# rule's own comparison: relative errors of at most n^2 u <= 2^-33 in f and
# s, a few u elsewhere, and the 0.99 in L covers the rounding of f / sqrt(n).
# So a completed Cholesky proves every w >= floor: the rule passes, and with
# psd_tol = 0 no w is negative.  Underflow in the products adds an absolute
# error of order n^2 2^-1074 (1 + f), below u f once f >= 2^-500; with
# f <= 2^500 no entry, product or partial sum overflows.  Outside those
# limits, for n = 0 and for n > 1024 the certificate is skipped.  Where
# S > |floor| / 2, c would pass no exactly singular h, and the certificate
# is the one at floor 0 instead, whose success proves that no w is negative.
# For spectra of comparable magnitudes (s / f near sqrt(n)) that happens at
# DEFAULT_TOL (1e-9) only for n above about 1000, and at STRICT_TOL (1e-11)
# from n near 80 on.
_PSD_MAX_N = 1024


def _cholesky_certifies_psd(h: np.ndarray, psd_tol: float) -> bool:
    """Whether one Cholesky of h - c I proves that every eigenvalue
    ``eigvalsh(h)`` returns is at least -psd_tol * (1 + L), or at least 0
    where that floor is too close to 0 (see the bound above).  ``h``, exactly
    Hermitian, is shifted in place and restored."""
    n = h.shape[0]
    if not 0 < n <= _PSD_MAX_N:
        return False
    with np.errstate(over="ignore", under="ignore"):  # tested just below
        f = fro(h)
    if not 2.0**-500 <= f <= 2.0**500:  # also false for a NaN norm
        return False
    s = float(np.abs(h.diagonal()).sum())
    e = 32.0 * (n + 1) * _UNIT_ROUNDOFF * f
    floor = -psd_tol * (1.0 + max(0.99 * f / math.sqrt(n) - e, 0.0))
    slack = 1.25 * (e + 5.0 * (n + 1) * _UNIT_ROUNDOFF * (f + s - (n + 2) * floor))
    if slack > -floor / 2:  # no exactly singular h would pass: certify at floor 0
        floor, slack = 0.0, 1.25 * (e + 5.0 * (n + 1) * _UNIT_ROUNDOFF * (f + s))
    return _shifted_cholesky_runs(h, -(floor + slack))


# The PSD flow, the one home of every positivity verdict on an exactly
# Hermitian matrix: one certificate, else eigvalsh and spectrum_is_psd.  The
# certificate is looked up in this module's namespace at each call, so
# replacing it here (as the eigvalsh-only reference of the tests does)
# switches it off.  A marginal test (the bound check of
# extension_set._checked_bound) accepts by certificate only at floor 0, which
# proves that no eigenvalue eigvalsh would return is negative; a spectrum
# that passes only within psd_tol reaches eigvalsh, and its least eigenvalue
# flags the tolerance-marginal warning.  A spectrum that overflowed decides
# nothing: an eigenvalue of -inf would pass the rule at max|w| = inf.


def _psd_rule(h: np.ndarray, cfg: ToleranceConfig, marginal: bool = False) -> tuple[bool, float]:
    """(whether the exactly Hermitian ``h`` passes :func:`spectrum_is_psd`, the least
    eigenvalue ``eigvalsh`` returned, or +inf where the certificate decided);
    ResultOutOfRange when an eigenvalue is not finite."""
    if _cholesky_certifies_psd(h, 0.0 if marginal else cfg.psd_tol):
        return True, math.inf
    w = _finite(np.linalg.eigvalsh(h), "spectrum")
    return spectrum_is_psd(w, cfg), float(w.min(initial=math.inf))


def is_psd(m, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Hermitian within cmp_tol, then :func:`_psd_rule` on the Hermitian part."""
    h = _checked_herm(as_matrix(m), cfg)[1]
    return h is not None and _psd_rule(h, cfg)[0]


def _psd_eigen(m, cfg: ToleranceConfig) -> HermitianEigen:
    """``eigh`` of a matrix that passes :func:`is_psd`, the test read off its
    eigenvalues; raises NotPsd otherwise, also for non-Hermitian input."""
    h = _checked_herm(as_matrix(m), cfg)[1]  # raises NotSquare first
    if h is not None:
        w, v = np.linalg.eigh(h)
        if spectrum_is_psd(w, cfg):
            return HermitianEigen(eigenvalues=w, eigenvectors=v)
    raise NotPsd("matrix is not positive semidefinite within tolerance")


def psd_sqrt(m, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Positive square root S of a PSD matrix, S @ S = M within cmp_tol.

    Eigenvalues below the rank cutoff are zeroed first; otherwise the
    square root would carry sqrt(machine-eps) noise in kernel directions
    and corrupt downstream range decisions.
    """
    return _sqrt(_psd_eigen(m, cfg), cfg)


def _sqrt(eig: HermitianEigen, cfg: ToleranceConfig) -> np.ndarray:
    """:func:`psd_sqrt` read off the eigendecomposition of a PSD matrix."""
    lam, u = _kept(eig, cfg)
    return _herm((u * np.sqrt(lam)) @ u.conj().T)


def _sqrt_pinv(eig: HermitianEigen, cfg: ToleranceConfig) -> np.ndarray:
    """Pseudo-inverse square root M^{+1/2}, supported on the numerical range,
    read off the eigendecomposition of a PSD matrix."""
    lam, u = _kept(eig, cfg)
    return (u / np.sqrt(lam)) @ u.conj().T


def loewner_leq(a, b, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Loewner order: A <= B iff B - A is PSD within tolerance (:func:`_loewner_leq`)."""
    am = as_matrix(a, "A")
    bm = as_matrix(b, "B")
    _require_square(am, "A")
    _require_square(bm, "B")
    if am.shape != bm.shape:
        raise ShapeMismatch(f"shape mismatch {am.shape} vs {bm.shape}")
    return _loewner_leq(_hermitian_part(am, "A", cfg), _hermitian_part(bm, "B", cfg), cfg)


# The Loewner rule: each operand passes the Hermitian rule once, at its own
# scale, and the PSD flow decides the difference of the Hermitian parts that
# _checked_herm formed, itself exactly Hermitian.  No Hermitian test of hi - lo
# runs: at the difference's scale it would reject a candidate whose
# anti-Hermitian part is rounding-level next to the candidate yet not next to
# hi - lo.


def _loewner_leq(lo: np.ndarray, hi: np.ndarray, cfg: ToleranceConfig, scale: float = 0.0) -> bool:
    """lo <= hi for Hermitian parts of operands tested once each: the PSD rule
    on hi - lo + psd_tol * scale * I.  ``scale`` is that of data an operand
    was rounded at, which the rule at the difference's own scale does not see."""
    diff = hi - lo
    diff.flat[:: diff.shape[0] + 1] += cfg.psd_tol * scale
    return _psd_rule(_finite(diff, "difference hi - lo"), cfg)[0]


def _span_coords(x: np.ndarray, q: np.ndarray, cfg: ToleranceConfig) -> np.ndarray | None:
    """Coordinates q† X of X over the orthonormal columns q, or None when X is
    not in their span: ``||X - q q† X||_F`` fails :func:`_within` at ``||X||_F``."""
    coords = q.conj().T @ x
    if not _within(fro(x - q @ coords), fro(x), cfg.cmp_tol):
        return None
    return coords

