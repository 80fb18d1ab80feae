"""Partially defined positive operators on C^n and their extendibility.

A partial operator is given by a basis D of its domain (columns of an
n x d matrix) together with its action on that basis (columns of Ad).
The Gram matrix G = D† Ad collects the form values ``<A x, x'>`` in
domain coordinates; symmetry and positivity of the operator on its
domain are exactly Hermitianness and positive semidefiniteness of G.

A positive everywhere-defined extension exists iff the kernel of G is
contained in the kernel of Ad, equivalently iff the Hilbert bound

    inf { M >= 0 : ||A x||^2 <= M <A x, x> for all x in dom A }

is finite.  Both criteria are implemented, along with the per-direction
constant M_y of the quadratic characterization.

Every construction in the package reads one :class:`GramSpectrum`: a
single pass of :func:`gram_spectrum` eigendecomposes G once for the
Hermitian and PSD tests, reads the full column rank of D off that spectrum
when its smallest eigenvalue clears the data scale (rank G <= rank D), and
only otherwise tests the rank of D, by one Cholesky of D† D and by SVD when
that certificate cannot decide.  It then splits the spectrum at the
data-scale cutoff, with the sigma_max brackets the read-off used, and
derives the extendibility witness from that split.  J, U Lam^{-1/2} and
a_n are formed on first read, for the constructions that use them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import numcore as nc
from .errors import (
    NonHermitianGram,
    NonPsdGram,
    NotExtendible,
    NotHermitian,
    RankDeficientDomain,
    ShapeMismatch,
)
from .numcore import DEFAULT_TOL, ToleranceConfig

_FAILURE_ERRORS = {
    "rank_deficient_domain": RankDeficientDomain,
    "non_hermitian_gram": NonHermitianGram,
    "non_psd_gram": NonPsdGram,
}

# What ResultOutOfRange names when a_n, or a quantity read off it, overflows.
_A_N = "minimal extension a_n = Ad G+ Ad†"


@dataclass(frozen=True)
class PartialOperator:
    """A: dom A -> C^n with dom A = span of the columns of ``domain_basis``."""

    domain_basis: np.ndarray
    action: np.ndarray

    def __post_init__(self):
        d = nc.as_matrix(self.domain_basis, "domain_basis")
        a = nc.as_matrix(self.action, "action")
        if d.shape != a.shape:
            raise ShapeMismatch(
                f"domain_basis {d.shape} and action {a.shape} must have equal shape"
            )
        object.__setattr__(self, "domain_basis", d)
        object.__setattr__(self, "action", a)

    @property
    def n(self) -> int:
        return self.domain_basis.shape[0]

    @property
    def d(self) -> int:
        return self.domain_basis.shape[1]

    def gram(self) -> np.ndarray:
        """G = D† Ad, the form <A x, x'> in domain coordinates."""
        return self.domain_basis.conj().T @ self.action

    def adjoint_action(self, y) -> np.ndarray:
        """v = Ad† y, so that <A D c, y> = v† c for domain coefficients c."""
        yv = nc.as_vector(y, "y")
        if yv.size != self.n:
            raise ShapeMismatch(f"y must have length {self.n}, got {yv.size}")
        return self.action.conj().T @ yv


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple[str, ...]
    gram: np.ndarray

    def raise_if_invalid(self) -> None:
        if not self.ok:
            raise _FAILURE_ERRORS[self.failures[0]](
                f"partial operator invalid: {', '.join(self.failures)}"
            )


@dataclass(frozen=True)
class ExtendibilityReport:
    """Verdict plus the data backing it.

    ``hilbert_bound`` is the infimum of the constants M above (+inf when
    none exists); finiteness of the bound is equivalent to extendibility,
    which subsumes the strong-topology boundedness criterion in finite
    dimensions.  ``witness`` is a normalized direction y with M_y = +inf
    when the operator is not extendible, and None otherwise.
    """

    extendible: bool
    gram: np.ndarray
    hilbert_bound: float
    witness: np.ndarray | None = field(default=None)


def _validated(
    p: PartialOperator, cfg: ToleranceConfig, accepted=None
) -> tuple[ValidationReport, nc.HermitianEigen | None, tuple]:
    """The one validation pass, plus what it computed along the way: the eigh
    of G that the PSD test read (None when G is not Hermitian) and the
    sigma_max brackets of D and Ad.  ``accepted`` is the bracket of a D that
    an earlier pass accepted: it stands for D's, and the rank test is skipped.
    Otherwise ``full_column_rank`` runs only when
    ``numcore._gram_certifies_rank`` cannot read the rank off G; a missing
    bracket (None: entries whose squares overflow or underflow) re-runs the
    rank test, which returns the first pass's verdict."""
    failures = []
    g = p.gram()
    d_bracket = nc._sigma_max_bracket(p.domain_basis) if accepted is None else accepted
    brackets = d_bracket, nc._sigma_max_bracket(p.action)
    try:
        eig = nc.hermitian_eigen(g, cfg)  # the one Hermitian test of G
    except NotHermitian:
        eig = None
    decided = accepted is not None or (
        eig is not None and nc._gram_certifies_rank(eig.eigenvalues, p.n, brackets, cfg)
    )
    if not (decided or nc.full_column_rank(p.domain_basis, cfg)):
        failures.append("rank_deficient_domain")
    if eig is None:
        failures.append("non_hermitian_gram")
    elif not nc.spectrum_is_psd(eig.eigenvalues, cfg):
        failures.append("non_psd_gram")
    report = ValidationReport(ok=not failures, failures=tuple(failures), gram=g)
    return report, eig, brackets


def validate(p: PartialOperator, cfg: ToleranceConfig = DEFAULT_TOL) -> ValidationReport:
    """Check full column rank of D, Hermitianness and positivity of G."""
    return _validated(p, cfg)[0]


@dataclass(frozen=True)
class GramSpectrum:
    """One validated factorization of G = D† Ad, split at the rank cutoff.

    eig:      the eigendecomposition of G that validation computed
    lam, u:   kept eigenvalues of G (descending) and their eigenvectors
    kernel:   eigenvectors of the eigenvalues at or below the cutoff
    witness:  normalized image Ad v of the kernel direction v that Ad
              moves most, when that exceeds cmp_tol; None otherwise
    basis_bracket: the sigma_max bracket of D that validation used
    embed, j: U Lam^{-1/2} (d x r) and the embedding J = Ad U Lam^{-1/2}: H_A -> C^n
              on an orthonormal basis of H_A (r = rank G); J* is j†
    a_n:      Ad G+ Ad†, the minimal extension; all three formed on first read
    """

    op: PartialOperator
    cfg: ToleranceConfig
    gram: np.ndarray
    eig: nc.HermitianEigen
    lam: np.ndarray
    u: np.ndarray
    kernel: np.ndarray
    witness: np.ndarray | None
    basis_bracket: tuple[float, float] | None

    @cached_property
    def embed(self) -> np.ndarray:
        return self.u / np.sqrt(self.lam)

    @cached_property
    def j(self) -> np.ndarray:
        return self.op.action @ self.embed

    def image(self) -> np.ndarray:
        """Ad U of a_n = (Ad U) Lam^{-1} (Ad U)†, formed per call; NotExtendible if no a_n."""
        return self.require_extendible().op.action @ self.u

    @cached_property
    def a_n(self) -> np.ndarray:
        """a_n = Ad G+ Ad†; NotExtendible when there is none, ResultOutOfRange
        when it overflows."""
        image = self.image()
        a_n = (image / self.lam) @ image.conj().T
        return nc._finite(nc._herm(a_n), _A_N)

    @property
    def r(self) -> int:
        return self.lam.size

    @property
    def extendible(self) -> bool:
        """ker G <= ker Ad, i.e. no kernel direction has a visible image."""
        return self.witness is None

    def require_extendible(self) -> GramSpectrum:
        """The spectrum itself, or NotExtendible carrying its witness."""
        if not self.extendible:
            raise NotExtendible(
                "no positive extension exists: the form vanishes along a direction "
                "the operator does not kill",
                certificate=self.witness,
            )
        return self

    def hilbert_bound(self) -> float:
        """Largest eigenvalue of the r x r matrix j† j (ResultOutOfRange when
        that overflows), or +inf."""
        if not self.extendible:
            return math.inf
        if self.r == 0:
            return 0.0
        jj = nc._finite(self.j.conj().T @ self.j, "Hilbert bound: j† j")
        return float(np.linalg.eigvalsh(jj).max(initial=0.0))

    def form(self, v) -> float:
        """v† G+ v for domain coefficients v; +inf off ran G, ResultOutOfRange on overflow."""
        coords = nc._span_coords(v, self.u, self.cfg)
        if coords is None:
            return math.inf
        return float(nc._finite((np.abs(coords) ** 2 / self.lam).sum(), "quadratic form v† G+ v"))


def gram_spectrum(
    p: PartialOperator, cfg: ToleranceConfig = DEFAULT_TOL
) -> GramSpectrum:
    """Validate ``p`` and factor its Gram matrix, in one pass.

    A Gram eigenvalue counts as zero when it falls below rank_rel_eps
    times max(largest eigenvalue, sigma_max(D) * sigma_max(Ad)); the
    second term keeps a Gram that is pure rounding noise relative to the
    data from looking full rank against itself.  The sigma_max are
    bracketed from column norms, and computed by SVD only when an
    eigenvalue lies too close to the cutoff for the brackets to decide
    (``numcore._above_data_cut``).  The operator is
    extendible exactly when Ad maps every sub-cutoff eigenvector to
    within cmp_tol of zero.

    Raises the :class:`InvalidOperator` subclass naming the first
    validation failure.
    """
    return _spectrum(p, cfg)


def _spectrum(p: PartialOperator, cfg: ToleranceConfig, accepted=None) -> GramSpectrum:
    """:func:`gram_spectrum`; see :func:`_validated` for ``accepted``."""
    report, eig, brackets = _validated(p, cfg, accepted)
    report.raise_if_invalid()
    keep = nc._above_data_cut(eig.eigenvalues, cfg, p.domain_basis, p.action, brackets=brackets)
    lam, u, kernel = nc._split(eig, keep)
    witness = nc._kernel_witness(p.action, kernel, cfg)
    return GramSpectrum(p, cfg, report.gram, eig, lam, u, kernel, witness, brackets[0])


def is_extendible(
    p: PartialOperator, cfg: ToleranceConfig = DEFAULT_TOL
) -> ExtendibilityReport:
    """Decide positive extendibility via kernel inclusion ker G <= ker Ad.

    When no extension exists the report carries a witness y (the image of
    a violating kernel direction, normalized): ``<A x, x> = 0`` while
    ``<A x, y> != 0`` along that direction, so no constant M_y works.
    """
    spec = gram_spectrum(p, cfg)
    return ExtendibilityReport(
        extendible=spec.extendible,
        gram=spec.gram,
        hilbert_bound=spec.hilbert_bound(),
        witness=spec.witness,
    )


def hilbert_bound(p: PartialOperator, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    """Largest eigenvalue of G^{+1/2} (Ad† Ad) G^{+1/2} on ran G, or +inf."""
    return gram_spectrum(p, cfg).hilbert_bound()


def my_constant(
    p: PartialOperator, y, cfg: ToleranceConfig = DEFAULT_TOL
) -> float:
    """Best constant in |<A x, y>|^2 <= M_y <A x, x> over the domain.

    Closed form: with v = Ad† y, M_y = v† G+ v when v lies in ran G and
    +inf otherwise.
    """
    return gram_spectrum(p, cfg).form(p.adjoint_action(y))
