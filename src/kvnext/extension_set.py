"""The order interval of positive extensions below a fixed bound.

Among positive extensions dominated by a positive operator B there is a
largest one, obtained by reflecting the minimal construction:

    a_max = B - minimal_extension(B restricted-minus A).

A positive candidate below B extends the partial operator exactly when
it sits between a_n and a_max in the Loewner order, which turns the
two-sided eigenvalue test :func:`in_interval` into a complete membership
criterion.  A congruence parametrization of the interval provides the
sampler used throughout the test suites, and the classical two-block
completion problem is solved by the same machinery specialized to a
domain spanned by leading coordinates.
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


def _interval(spec: GramSpectrum, b) -> IntervalResult:
    """:func:`a_max` read off a spectrum the caller holds: its operator,
    tolerances, minimal extension and D's sigma_max bracket."""
    p, cfg, a_n = spec.op, spec.cfg, spec.a_n
    b = nc.as_matrix(b, "bound")
    if b.shape != (p.n, p.n):
        raise ShapeMismatch(f"bound must be {p.n} x {p.n}, got {b.shape}")
    # a_n <= B, the bound's Hermitian part against a_n (exactly Hermitian);
    # the marginal test reads a spectrum that passes only within psd_tol
    gap = nc._finite(nc._hermitian_part(b, "bound", cfg) - a_n, "gap B - a_n")
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
            stacklevel=3,
        )
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
    """Membership in [a_n, a_max]; for positive candidates below the bound
    this is equivalent to being an extension of ``p``."""
    cm = nc.as_matrix(candidate, "candidate")
    if cm.shape != (p.n, p.n):
        raise ShapeMismatch(f"candidate must be {p.n} x {p.n}, got {cm.shape}")
    # a_n <= cm <= a_max in the Loewner order; both ends are Hermitian by
    # construction, so only the candidate's symmetry needs its one test, and
    # it comes first: a non-Hermitian candidate costs no factorization
    h = nc._hermitian_part(cm, "candidate", cfg)
    interval = a_max(p, b, cfg)
    return nc._loewner_leq(interval.a_n, h, cfg) and nc._loewner_leq(h, interval.a_max, cfg)


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
