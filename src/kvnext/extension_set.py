"""The order interval of positive extensions below a fixed bound.

Among positive extensions dominated by a positive operator B there is a
largest one, obtained by reflecting the minimal construction:

    a_max = B - minimal_extension(B restricted-minus A).

By the paper's main theorem a_n is the least positive extension and a_max
the greatest positive extension below B, and a_max - a_n vanishes on the
domain.  So a Hermitian X lies in [a_n, a_max] exactly when X D = Ad,
X >= 0 and X <= B: :func:`in_interval` decides those three on the one
factorization of G that the bound check reads, and never builds a_max.
A congruence parametrization of the interval provides the sampler used
throughout the test suites, and the classical two-block completion
problem is solved by the same machinery specialized to a domain spanned
by leading coordinates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import BoundTooSmall, InvalidOperator, NotPsd, ShapeMismatch
from .numcore import DEFAULT_TOL, ToleranceConfig
from .partial_op import GramSpectrum, PartialOperator, _spectrum, gram_spectrum


@dataclass(frozen=True)
class IntervalResult:
    a_n: np.ndarray
    a_max: np.ndarray
    degenerate: bool


@dataclass(frozen=True)
class CompletionReport:
    """Three equivalent solvability criteria for the two-block completion.

    completable:      a positive completion exists (extendibility route)
    bounded:          A21† A21 <= M * A11 for some finite M
    range_condition:  ran A21† inside ran A11^{1/2}
    bound_constant:   the sharp M when finite, +inf otherwise
    a22_min:          minimal lower-right block A21 A11+ A21† (when solvable)
    completion:       assembled minimal positive completion (when solvable)
    witness:          normalized direction certifying non-completability
                      (when not solvable), as in ExtendibilityReport
    """

    completable: bool
    bounded: bool
    range_condition: bool
    bound_constant: float
    a22_min: np.ndarray | None
    completion: np.ndarray | None
    witness: np.ndarray | None


def _checked_bound(spec: GramSpectrum, b, stacklevel: int) -> tuple[np.ndarray, np.ndarray]:
    """(b as a matrix, its Hermitian part) once ``b`` passes as a bound for the
    operator of ``spec``: finite, square, Hermitian and B >= a_n, else
    BoundTooSmall with its certificate; warns, at ``stacklevel`` frames up,
    when B >= a_n holds only within psd_tol."""
    p, cfg, a_n = spec.op, spec.cfg, spec.a_n
    b = nc.as_matrix(b, "bound")
    if b.shape != (p.n, p.n):
        raise ShapeMismatch(f"bound must be {p.n} x {p.n}, got {b.shape}")
    # a_n <= B, the bound's Hermitian part against a_n (exactly Hermitian);
    # the marginal test reads a spectrum that passes only within psd_tol
    hb = nc._hermitian_part(b, "bound", cfg)
    gap = nc._finite(hb - a_n, "gap B - a_n")
    dominates, least = nc._psd_rule(gap, cfg, marginal=True)
    if not dominates:
        eig = nc._eigh(gap)
        raise BoundTooSmall(
            f"bound does not dominate the minimal extension "
            f"(violation {float(eig.eigenvalues[0]):.3e} along a certificate direction)",
            certificate=eig.eigenvectors[:, 0],
        )
    if least < 0.0:
        warnings.warn(
            "bound dominates the minimal extension only within psd_tol; "
            "the interval endpoints are tolerance-marginal",
            stacklevel=stacklevel,
        )
    return b, hb


def _interval(spec: GramSpectrum, b) -> IntervalResult:
    """:func:`a_max` read off a spectrum the caller holds: its operator,
    tolerances, minimal extension and D's sigma_max bracket."""
    p, cfg, a_n = spec.op, spec.cfg, spec.a_n
    b = _checked_bound(spec, b, stacklevel=4)[0]
    # the spectrum a_n came from accepted D, so the shifted operator on the
    # same D skips the rank test
    shifted = PartialOperator(p.domain_basis, b @ p.domain_basis - p.action)
    top = nc._herm(b - _spectrum(shifted, cfg, spec.basis_bracket).a_n)
    return IntervalResult(
        a_n=a_n,
        a_max=top,
        degenerate=nc._within(nc.fro(top - a_n), nc.fro(a_n), cfg.cmp_tol),
    )


def a_max(p: PartialOperator, b, cfg: ToleranceConfig = DEFAULT_TOL) -> IntervalResult:
    """Largest positive extension of ``p`` dominated by ``b``.

    Built as b - a_n(shifted) where the shifted partial operator has the
    same domain and action ``b @ D - Ad``.
    """
    return _interval(gram_spectrum(p, cfg), b)


def in_interval(
    p: PartialOperator, b, candidate, cfg: ToleranceConfig = DEFAULT_TOL
) -> bool:
    """Membership in [a_n, a_max], decided by the interval theorem.

    a_n is the least positive extension and a_max the greatest one below B,
    and the two agree on the domain, so X lies in [a_n, a_max] exactly when
    X D = Ad, X >= 0 and X <= B.  Those three are decided on the candidate's
    Hermitian part, in that order, once the bound passes the check of
    :func:`a_max`: each column of X D - Ad by the cmp_tol rule on D's column
    at unit length, at the scale ||X||_F + ||Ad e_j|| / ||D e_j|| it rounds
    at (an overflowed residual raises ResultOutOfRange); then the PSD rule
    on X; then the Loewner rule on B - X with psd_tol times B's largest
    entry of slack, the scale a_max rounds at.  ``p`` is factored once;
    a_max is not built.
    """
    cm = nc.as_matrix(candidate, "candidate")
    if cm.shape != (p.n, p.n):
        raise ShapeMismatch(f"candidate must be {p.n} x {p.n}, got {cm.shape}")
    # the candidate's one symmetry test comes first: a non-Hermitian
    # candidate costs no factorization
    h = nc._hermitian_part(cm, "candidate", cfg)
    hb = _checked_bound(gram_spectrum(p, cfg), b, stacklevel=3)[1]
    d, ad = p.domain_basis, p.action
    with np.errstate(over="ignore", invalid="ignore"):  # tested just below
        norms = np.stack([nc._norms(h @ d - ad, 0), nc._norms(ad, 0)])
        # an infinite ||X||_F passes a finite residual; X <= B then decides
        x_scale = nc.fro(h)
    # an overflowed residual or scale would compare as a verdict
    residual, scale = nc._finite(norms, "residual X D - Ad")
    # column j at unit length: the residual rounds at ||X||_F, so the rule
    # is the same on any rescaling of the domain's basis vectors
    unit = nc._norms(d, 0)
    return bool(
        nc._within(residual, unit * x_scale + scale, cfg.cmp_tol, unit).all()
        and nc._psd_rule(h, cfg)[0]
        # a_max = B - a_n of the shifted operator rounds at B's entries, the
        # largest on its diagonal, as B >= a_n >= 0
        and nc._loewner_leq(h, hb, cfg, float(np.abs(hb.diagonal()).max(initial=0.0)))
    )


def sample_extensions(
    p: PartialOperator,
    b,
    count: int,
    seed: int,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> list[np.ndarray]:
    """Draw ``count`` members of the extension interval, deterministically.

    Each sample is a_n + S^{1/2} W S^{1/2} with S = a_max - a_n and W a
    pseudorandom Hermitian contraction 0 <= W <= I, so membership and the
    extension property hold by construction.
    """
    return _samples(a_max(p, b, cfg), count, seed, cfg)


def _samples(
    interval: IntervalResult, count: int, seed: int, cfg: ToleranceConfig
) -> list[np.ndarray]:
    """:func:`sample_extensions`, drawn from an interval already computed."""
    spread = nc._herm(interval.a_max - interval.a_n)
    try:
        s_half = nc.psd_sqrt(spread, cfg)
    except NotPsd as exc:
        raise NotPsd("interval spread a_max - a_n is not PSD within tolerance") from exc
    n = spread.shape[0]
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(max(count, 0)):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q = np.linalg.qr(z)[0]
        w = (q * rng.uniform(0.0, 1.0, n)) @ q.conj().T
        m = interval.a_n + s_half @ w @ s_half
        samples.append(nc._herm(m))
    return samples


def halmos_complete(
    a11, a21, cfg: ToleranceConfig = DEFAULT_TOL
) -> CompletionReport:
    """Decide the two-block positive completion problem three ways.

    Given the known column [[A11], [A21]] of a partitioned matrix with
    A11 PSD, a positive completion exists iff A21† A21 <= M A11 for some
    M iff ran A21† lies inside ran A11^{1/2}.  The three criteria are
    evaluated by separate tests; the minimal completion fills the free block
    with the shorted expression A21 A11+ A21†, the lower-right block of
    j j* for the column's partial operator, whose Gram matrix is exactly A11.
    """
    a11m = nc.as_matrix(a11, "A11")
    a21m = nc.as_matrix(a21, "A21")
    if a11m.shape[0] != a11m.shape[1]:
        raise ShapeMismatch(f"A11 must be square, got {a11m.shape}")
    if a21m.shape[1] != a11m.shape[0]:
        raise ShapeMismatch(
            f"A21 must have {a11m.shape[0]} columns, got {a21m.shape[1]}"
        )
    k = a11m.shape[0]
    domain = np.zeros((k + a21m.shape[0], k), dtype=np.complex128)
    domain[:k, :] = np.eye(k)
    column = PartialOperator(domain, np.vstack([a11m, a21m]))
    try:
        # D = [I; 0] has orthonormal columns, so it is accepted with its
        # bracket: only the Hermitian or PSD test on G = A11 can fail.
        spec = _spectrum(column, cfg, nc._sigma_max_bracket(domain))
    except InvalidOperator as exc:
        raise NotPsd("A11 is not positive semidefinite within tolerance") from exc

    # G = A11, so spec's eigendecomposition of G serves the block-side
    # criteria too, each with its own cutoff.  Kernel inclusion ker A11 <= ker
    # A21 scales its cutoff by ||A21|| rather than sigma(D) sigma(Ad), so an
    # A11 that is rounding noise next to A21 counts as zero.
    eig = spec.eig
    kernel = nc._split(eig, nc._above_data_cut(eig.eigenvalues, cfg, a21m))[2]
    bounded = nc._kernel_witness(a21m, kernel, cfg) is None
    if bounded:
        s = nc._sqrt_pinv(eig, cfg)
        coupling = nc._finite(
            nc._herm(s @ (a21m.conj().T @ a21m) @ s), "coupling A11^{+1/2} A21† A21 A11^{+1/2}"
        )
        bound_constant = float(np.linalg.eigvalsh(coupling).max(initial=0.0))
    else:
        bound_constant = float("inf")

    # ran A11^{1/2} is spanned by the eigenvectors of A11 that _sqrt keeps.
    range_condition = nc._span_coords(a21m.conj().T, nc._kept(eig, cfg)[1], cfg) is not None

    a22_min = None
    completion = None
    if spec.extendible:
        j_lower = spec.j[k:]  # A21 U Lam^{-1/2}, so j_lower j_lower† = A21 A11+ A21†
        a22_min = nc._herm(j_lower @ j_lower.conj().T)
        completion = nc._herm(np.block([[a11m, a21m.conj().T], [a21m, a22_min]]))
    return CompletionReport(
        completable=spec.extendible,
        bounded=bounded,
        range_condition=range_condition,
        bound_constant=bound_constant,
        a22_min=a22_min,
        completion=completion,
        witness=spec.witness,
    )
