"""Representable extension of functionals on left ideals of *-algebras.

A finite-dimensional *-algebra is described by its structure tensor
(``b_i b_j = sum_k mult[i, j, k] b_k``) and an involution matrix acting
on coefficients by ``(sum_i c_i b_i)* = sum_i conj(c_i) invol[i, :]``.
A linear functional f on a left ideal induces a partial operator on the
coefficient space through ``<A a, x> = f(x* a)``; f extends to a
representable functional on the whole algebra exactly when it is

* Hilbert bounded:  |f(a)|^2 <= M f(a* a) on the ideal, and
* admissible:       f(a* x* x a) <= lambda_x f(a* a) for every x,

and then the minimal extension f_N is read off the GNS data built on the
auxiliary space of the induced operator: a *-representation pi, a cyclic
candidate vector zeta with f(a) = <class of A a, zeta>, and the formulas

    f_N(x) = <pi(x) zeta, zeta>,        f_N(x* x) = ||J* x||^2.

The extensions dominated by a representable functional g form an order
interval [f_N, f_max] with f_max = g - minimal_extension(g - f), in
exact parallel with the operator picture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import (
    AssociativityFail,
    BoundNotDominating,
    IdealNotClosed,
    InvolutionFail,
    NonHermitianGram,
    NonPsdGram,
    NoUnit,
    NotAdmissible,
    NotExtendible,
    NotHilbertBounded,
    NotRepresentable,
    RankDeficientDomain,
    ShapeMismatch,
    UnitFail,
)
from .kvn import krein_von_neumann
from .numcore import DEFAULT_TOL, ToleranceConfig
from .partial_op import GramSpectrum, PartialOperator, gram_spectrum

_ALGEBRA_FAILURES = {
    "associativity": AssociativityFail,
    "involution_not_involutive": InvolutionFail,
    "involution_not_antimultiplicative": InvolutionFail,
    "unit": UnitFail,
    "ideal_rank": RankDeficientDomain,
    "ideal_closure": IdealNotClosed,
}


@dataclass(frozen=True)
class StarAlgebra:
    """Structure constants, involution, and optional unit, all in one basis."""

    mult: np.ndarray
    invol: np.ndarray
    unit: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.mult, dtype=np.complex128)
        if t.ndim != 3 or len(set(t.shape)) != 1:
            raise ShapeMismatch(f"structure tensor must be (m, m, m), got {t.shape}")
        v = np.asarray(self.invol, dtype=np.complex128)
        if v.shape != (t.shape[0], t.shape[0]):
            raise ShapeMismatch(f"involution must be {t.shape[0]} square, got {v.shape}")
        u = self.unit
        if u is not None:
            u = nc.as_vector(u, "unit")
            if u.size != t.shape[0]:
                raise ShapeMismatch(f"unit must have length {t.shape[0]}")
        object.__setattr__(self, "mult", t)
        object.__setattr__(self, "invol", v)
        object.__setattr__(self, "unit", u)

    @property
    def m(self) -> int:
        return self.mult.shape[0]

    def multiply(self, a, b) -> np.ndarray:
        return np.einsum("i,j,ijk->k", nc.as_vector(a), nc.as_vector(b), self.mult)

    def star(self, a) -> np.ndarray:
        return self.invol.T @ np.conj(nc.as_vector(a))

    def left_mult_matrix(self, x) -> np.ndarray:
        """Matrix of y -> x y on algebra coefficients."""
        return np.einsum("i,ijk->kj", nc.as_vector(x), self.mult)


@dataclass(frozen=True)
class LeftIdeal:
    """Columns are coefficient vectors of the ideal basis a_1 .. a_p."""

    basis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "basis", nc.as_matrix(self.basis, "ideal basis"))

    @property
    def p(self) -> int:
        return self.basis.shape[1]


def whole_algebra_ideal(algebra: StarAlgebra) -> LeftIdeal:
    return LeftIdeal(np.eye(algebra.m, dtype=np.complex128))


@dataclass(frozen=True)
class AlgebraValidation:
    ok: bool
    failures: tuple[str, ...]

    def raise_if_invalid(self) -> None:
        if not self.ok:
            raise _ALGEBRA_FAILURES[self.failures[0]](
                f"algebra/ideal invalid: {', '.join(self.failures)}"
            )


@dataclass(frozen=True)
class HilbertBoundReport:
    bounded: bool
    constant: float


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    lambdas: np.ndarray


@dataclass(frozen=True)
class GnsData:
    """Concrete GNS triple on C^r, r the rank of the ideal Gram matrix.

    ``pi[i]`` is the representing matrix of the i-th basis element,
    ``zeta`` the cyclic candidate vector, and ``j_star_full`` the matrix
    sending an algebra element to its auxiliary-space image J* x.
    """

    r: int
    gram: np.ndarray
    pi: tuple[np.ndarray, ...]
    zeta: np.ndarray
    j_star_full: np.ndarray


def _ideal_coords(ideal: LeftIdeal, vec: np.ndarray, cfg: ToleranceConfig) -> np.ndarray:
    """Coefficients of an algebra element in the ideal basis (must lie in it)."""
    if ideal.p == 0:
        if np.linalg.norm(vec) > cfg.cmp_tol:
            raise IdealNotClosed("element outside the zero ideal")
        return np.zeros(0, dtype=np.complex128)
    c, *_ = np.linalg.lstsq(ideal.basis, vec.reshape(-1, 1), rcond=None)
    c = c.reshape(-1)
    if np.linalg.norm(ideal.basis @ c - vec) > cfg.cmp_tol * (
        1.0 + np.linalg.norm(vec)
    ):
        raise IdealNotClosed("element does not lie in the ideal within tolerance")
    return c


def validate_algebra(
    algebra: StarAlgebra, ideal: LeftIdeal, cfg: ToleranceConfig = DEFAULT_TOL
) -> AlgebraValidation:
    """Check associativity, involution laws, the unit, and ideal closure."""
    failures = []
    m = algebra.m
    basis = np.eye(m, dtype=np.complex128)

    def close(x, y):
        return np.linalg.norm(x - y) <= cfg.cmp_tol * (
            1.0 + np.linalg.norm(x) + np.linalg.norm(y)
        )

    products = [
        [algebra.multiply(basis[:, i], basis[:, j]) for j in range(m)]
        for i in range(m)
    ]
    if not all(
        close(algebra.multiply(products[i][j], basis[:, k]),
              algebra.multiply(basis[:, i], products[j][k]))
        for i in range(m) for j in range(m) for k in range(m)
    ):
        failures.append("associativity")
    if not all(
        close(algebra.star(algebra.star(basis[:, i])), basis[:, i]) for i in range(m)
    ):
        failures.append("involution_not_involutive")
    if not all(
        close(
            algebra.star(products[i][j]),
            algebra.multiply(algebra.star(basis[:, j]), algebra.star(basis[:, i])),
        )
        for i in range(m) for j in range(m)
    ):
        failures.append("involution_not_antimultiplicative")
    if algebra.unit is not None and not all(
        close(algebra.multiply(algebra.unit, basis[:, i]), basis[:, i])
        and close(algebra.multiply(basis[:, i], algebra.unit), basis[:, i])
        for i in range(m)
    ):
        failures.append("unit")

    if ideal.basis.shape[0] != m:
        raise ShapeMismatch(
            f"ideal basis must have {m} rows, got {ideal.basis.shape[0]}"
        )
    if ideal.p > 0:
        sv = np.linalg.svd(ideal.basis, compute_uv=False)
        if np.min(sv) <= cfg.rank_rel_eps * np.max(sv):
            failures.append("ideal_rank")
        else:
            try:
                for i in range(m):
                    for l in range(ideal.p):
                        _ideal_coords(
                            ideal,
                            algebra.multiply(basis[:, i], ideal.basis[:, l]),
                            cfg,
                        )
            except IdealNotClosed:
                failures.append("ideal_closure")
    return AlgebraValidation(ok=not failures, failures=tuple(failures))


def _checked_values(ideal: LeftIdeal, f) -> np.ndarray:
    w = nc.as_vector(f, "functional values")
    if w.size != ideal.p:
        raise ShapeMismatch(f"functional must have length {ideal.p}, got {w.size}")
    return w


def induced_operator(
    algebra: StarAlgebra,
    ideal: LeftIdeal,
    f,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> PartialOperator:
    """Partial operator of the functional: action column j is (f(b_k* a_j))_k.

    Its Gram matrix collects the form values f(a_i* a_j); Hermitianness
    and positivity of that Gram are exactly positivity of f on the ideal.
    """
    return _induced_spectrum(algebra, ideal, f, cfg).op


def _induced_spectrum(
    algebra: StarAlgebra, ideal: LeftIdeal, f, cfg: ToleranceConfig
) -> GramSpectrum:
    """The induced operator, validated and factored once."""
    validate_algebra(algebra, ideal, cfg).raise_if_invalid()
    w = _checked_values(ideal, f)
    m = algebra.m
    action = np.zeros((m, ideal.p), dtype=np.complex128)
    basis = np.eye(m, dtype=np.complex128)
    for j in range(ideal.p):
        for k in range(m):
            prod = algebra.multiply(algebra.star(basis[:, k]), ideal.basis[:, j])
            action[k, j] = np.dot(_ideal_coords(ideal, prod, cfg), w)
    return gram_spectrum(PartialOperator(ideal.basis, action), cfg)


def _ideal_left_mult(
    algebra: StarAlgebra, ideal: LeftIdeal, x: np.ndarray, cfg: ToleranceConfig
) -> np.ndarray:
    """Ideal-coordinate matrix of a -> x a."""
    cols = [
        _ideal_coords(ideal, algebra.multiply(x, ideal.basis[:, l]), cfg)
        for l in range(ideal.p)
    ]
    return np.array(cols, dtype=np.complex128).T if cols else np.zeros((0, 0), dtype=np.complex128)


def is_hilbert_bounded(
    algebra: StarAlgebra,
    ideal: LeftIdeal,
    f,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> HilbertBoundReport:
    """Sharp constant in |f(a)|^2 <= M f(a* a), +inf when there is none."""
    return _hilbert_report(_induced_spectrum(algebra, ideal, f, cfg), ideal, f)


def _hilbert_report(spec: GramSpectrum, ideal: LeftIdeal, f) -> HilbertBoundReport:
    constant = spec.form(np.conj(_checked_values(ideal, f)))
    return HilbertBoundReport(bounded=math.isfinite(constant), constant=constant)


def is_admissible(
    algebra: StarAlgebra,
    ideal: LeftIdeal,
    f,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> AdmissibilityReport:
    """Per-basis growth constants lambda_x of f(a* x* x a) against f(a* a).

    Finiteness over the basis extends to arbitrary elements: expanding
    x in the basis bounds f(a* x* x a) by a fixed combination of the
    basis constants, so existence for all x follows.
    """
    return _admissibility(algebra, ideal, _induced_spectrum(algebra, ideal, f, cfg))


def _admissibility(
    algebra: StarAlgebra, ideal: LeftIdeal, spec: GramSpectrum
) -> AdmissibilityReport:
    m = algebra.m
    if ideal.p == 0:
        return AdmissibilityReport(admissible=True, lambdas=np.zeros(m))
    cfg, g, kernel = spec.cfg, spec.gram, spec.kernel
    root_inv = spec.u / np.sqrt(spec.lam)
    basis = np.eye(m, dtype=np.complex128)
    lambdas = np.zeros(m)
    admissible = True
    for i in range(m):
        lmat = _ideal_left_mult(algebra, ideal, basis[:, i], cfg)
        gx = lmat.conj().T @ g @ lmat
        gx = 0.5 * (gx + gx.conj().T)
        ev = np.linalg.eigvalsh(gx) if gx.size else np.zeros(0)
        gx_top = float(max(np.max(ev), 0.0)) if ev.size else 0.0
        ok = all(
            math.sqrt(max(float(np.real(kernel[:, k].conj() @ gx @ kernel[:, k])), 0.0))
            <= cfg.cmp_tol * (1.0 + math.sqrt(gx_top))
            for k in range(kernel.shape[1])
        )
        if not ok:
            lambdas[i] = math.inf
            admissible = False
        else:
            w = root_inv.conj().T @ gx @ root_inv
            ev = np.linalg.eigvalsh(0.5 * (w + w.conj().T)) if w.size else np.zeros(0)
            lambdas[i] = float(max(np.max(ev), 0.0)) if ev.size else 0.0
    return AdmissibilityReport(admissible=admissible, lambdas=lambdas)


def gns(
    algebra: StarAlgebra,
    ideal: LeftIdeal,
    f,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> GnsData:
    """Build the GNS triple of an admissible, Hilbert bounded functional.

    The auxiliary space is realized on C^r through the spectral
    coordinates of the Gram matrix, exactly as in the operator picture;
    pi pushes left multiplication through that coordinate map, and zeta
    represents f itself on the embedded ideal.
    """
    spec = _induced_spectrum(algebra, ideal, f, cfg)
    if not _hilbert_report(spec, ideal, f).bounded:
        raise NotHilbertBounded(
            "functional is not dominated by its quadratic form on the ideal"
        )
    adm = _admissibility(algebra, ideal, spec)
    if not adm.admissible:
        raise NotAdmissible(
            "left multiplication does not descend to the auxiliary space",
            certificate=adm.lambdas,
        )
    coord = np.sqrt(spec.lam)[:, None] * spec.u.conj().T
    rep = spec.u / np.sqrt(spec.lam)
    basis = np.eye(algebra.m, dtype=np.complex128)
    pi = tuple(
        coord @ _ideal_left_mult(algebra, ideal, basis[:, i], cfg) @ rep
        for i in range(algebra.m)
    )
    zeta = rep.conj().T @ np.conj(_checked_values(ideal, f))
    return GnsData(
        r=spec.r, gram=spec.gram, pi=pi, zeta=zeta, j_star_full=spec.j.conj().T
    )


def extend_functional(
    algebra: StarAlgebra,
    ideal: LeftIdeal,
    f,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> np.ndarray:
    """Minimal representable extension: f_N(b_k) = <pi(b_k) zeta, zeta>."""
    data = gns(algebra, ideal, f, cfg)
    return np.array(
        [np.vdot(data.zeta, p @ data.zeta) for p in data.pi], dtype=np.complex128
    )


def fn_on_positive(
    algebra: StarAlgebra,
    ideal: LeftIdeal,
    f,
    x,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> float:
    """f_N(x* x) = ||J* x||^2, the supremum of |f(x* a)|^2 over f(a* a) <= 1."""
    data = gns(algebra, ideal, f, cfg)
    xv = nc.as_vector(x, "x")
    if xv.size != algebra.m:
        raise ShapeMismatch(f"x must have length {algebra.m}, got {xv.size}")
    return float(np.linalg.norm(data.j_star_full @ xv) ** 2)


def extend_functional_unital(
    algebra: StarAlgebra,
    ideal: LeftIdeal,
    f,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> np.ndarray:
    """Unital shortcut f_N(x) = conj(<a_n 1, x>) through the minimal extension.

    Hilbert boundedness is not demanded up front; it is derived, and a
    failure of the underlying extension construction is surfaced as
    NotHilbertBounded (a unit outside the ideal cannot force the bound).
    """
    if algebra.unit is None:
        raise NoUnit("algebra has no unit")
    spec = _induced_spectrum(algebra, ideal, f, cfg)
    adm = _admissibility(algebra, ideal, spec)
    if not adm.admissible:
        raise NotAdmissible(
            "left multiplication does not descend to the auxiliary space",
            certificate=adm.lambdas,
        )
    try:
        a_n = krein_von_neumann(spec.op, cfg).a_n
    except NotExtendible as exc:
        raise NotHilbertBounded(
            "functional is not Hilbert bounded despite admissibility"
        ) from exc
    return np.conj(a_n @ algebra.unit)


def functional_gram(algebra: StarAlgebra, g) -> np.ndarray:
    """Full-algebra form matrix (g(b_i* b_j))_{ij} of a functional."""
    gv = nc.as_vector(g, "functional values")
    if gv.size != algebra.m:
        raise ShapeMismatch(f"functional must have length {algebra.m}, got {gv.size}")
    m = algebra.m
    basis = np.eye(m, dtype=np.complex128)
    out = np.zeros((m, m), dtype=np.complex128)
    for i in range(m):
        star_i = algebra.star(basis[:, i])
        for j in range(m):
            out[i, j] = np.dot(algebra.multiply(star_i, basis[:, j]), gv)
    return out


def functional_leq(
    algebra: StarAlgebra, f1, f2, cfg: ToleranceConfig = DEFAULT_TOL
) -> bool:
    """Order on functionals: (f2 - f1)(x* x) >= 0 for all x, via the form matrix."""
    diff = nc.as_vector(f2) - nc.as_vector(f1)
    return nc.is_psd(functional_gram(algebra, diff), cfg)


def is_representable(
    algebra: StarAlgebra, g, cfg: ToleranceConfig = DEFAULT_TOL
) -> bool:
    """Decide representability constructively: run the GNS build on (A, A, g)."""
    gv = nc.as_vector(g, "functional values")
    if gv.size != algebra.m:
        raise ShapeMismatch(f"functional must have length {algebra.m}, got {gv.size}")
    if not nc.is_psd(functional_gram(algebra, gv), cfg):
        return False
    try:
        gns(algebra, whole_algebra_ideal(algebra), gv, cfg)
    except (NotHilbertBounded, NotAdmissible, NonPsdGram, NonHermitianGram):
        return False
    return True


def f_max(
    algebra: StarAlgebra,
    ideal: LeftIdeal,
    f,
    g,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> np.ndarray:
    """Largest representable extension of f dominated by g.

    Mirrors the operator construction: f_max = g - (g - f)_N.  The
    outputs are checked to be representable rather than assumed (the
    dominated-implies-representable step is an external fact here).
    """
    gv = nc.as_vector(g, "bound functional")
    if gv.size != algebra.m:
        raise ShapeMismatch(f"bound functional must have length {algebra.m}")
    if not is_representable(algebra, gv, cfg):
        raise NotRepresentable("bound functional is not representable")
    f_n = extend_functional(algebra, ideal, f, cfg)
    head = functional_gram(algebra, gv - f_n)
    if not nc.is_psd(head, cfg):
        eig = nc.hermitian_eigen(0.5 * (head + head.conj().T), cfg)
        raise BoundNotDominating(
            "bound functional does not dominate the minimal extension",
            certificate=eig.eigenvectors[:, 0],
        )
    w = _checked_values(ideal, f)
    shifted = ideal.basis.T @ gv - w
    result = gv - extend_functional(algebra, ideal, shifted, cfg)
    for name, candidate in (("g - f_N", gv - f_n), ("f_max", result)):
        if not is_representable(algebra, candidate, cfg):
            raise NotRepresentable(
                f"{name} failed the constructive representability check"
            )
    return result
