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

Everything runs on the regular representation.  One validation of the
algebra and ideal compares the rows of all laws but associativity in one
call, deciding overflowing norms on exactly rescaled rows, rank-tests the
ideal basis, the only rank test, and solves once for the ideal coordinates
of every product b_i a_l: their stack L[i], the matrices of a -> b_i a,
yields the induced action, the admissibility forms L_i† G L_i and pi.
Each functional is decided once per problem: its Gram form is factored
once, its Hilbert bound, admissibility, GNS data and f_N computed on first
read and returned as they are; the CLI reads one record per request.
Representability and the GNS build read the Hilbert bound and the
admissibility verdict, a kernel condition that needs the forms only when G
has a kernel; lambda_x is formed only where a report prints it or a
NotAdmissible carries it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

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
from .numcore import DEFAULT_TOL, ToleranceConfig
from .partial_op import GramSpectrum, PartialOperator, _spectrum

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
        nc.as_vector(t, "structure tensor")  # ShapeMismatch on non-finite entries
        nc.as_vector(v, "involution")
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
    """Failure names in check order; ``left_mult[i]`` is the ideal-coordinate
    matrix of a -> b_i a (m x p x p), None unless the ideal is closed."""

    ok: bool
    failures: tuple[str, ...]
    left_mult: np.ndarray | None = field(default=None, repr=False, compare=False)

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


# Entries of (b_i b_j) b_k formed at once: associativity is checked for a
# block of i at a time, so peak memory stays O(m^3).
_ASSOC_BLOCK = 1 << 16


def _close(x, y, tol: float, axis=-1, scale_x=True, unit=None) -> np.ndarray:
    """Per slice along ``axis``: ||x - y|| within tol at scale ||x|| + ||y||, or
    ||y|| alone unless ``scale_x``.  Where a norm overflows, the rule is decided
    on each slice times ``unit`` = 2^-max(e, -1000), e the exponent of its largest entry."""
    with np.errstate(over="ignore"):  # a norm that overflows is decided below
        resid, scale = nc._norms(x - y, axis), nc._norms(y, axis)
        scale = nc._norms(x, axis) + scale if scale_x else scale
    if unit is not None or np.isfinite(resid + scale).all():
        return nc._within(resid, scale, tol, 1.0 if unit is None else unit.squeeze(axis))
    big = np.maximum(np.abs(x).max(axis, keepdims=True), np.abs(y).max(axis, keepdims=True))
    unit = np.ldexp(1.0, -np.maximum(np.frexp(big)[1], -1000))
    return _close(x * unit, y * unit, tol, axis, scale_x, unit)


def _associative(mult: np.ndarray, tol: float) -> bool:
    """(b_i b_j) b_k = b_i (b_j b_k) for all basis triples, as GEMMs."""
    m = mult.shape[0]
    products = mult.reshape(m, m * m)  # row a: b_a b_k over (k, coefficient)
    pairs = mult.reshape(m * m, m)  # row (j, k): b_j b_k
    step = max(1, _ASSOC_BLOCK // max(m, 1) ** 3)
    for lo in range(0, m, step):
        block = mult[lo : lo + step]
        left = (block.reshape(-1, m) @ products).reshape(-1, m)
        right = (pairs @ block).reshape(-1, m)
        if not _close(left, right, tol).all():
            return False
    return True


def validate_algebra(
    algebra: StarAlgebra, ideal: LeftIdeal, cfg: ToleranceConfig = DEFAULT_TOL
) -> AlgebraValidation:
    """Check associativity, involution laws, the unit, and ideal closure.

    Each law is one batched contraction compared row by row, ||x - y|| by the
    cmp_tol rule at scale ||x|| + ||y||: associativity block by block, the other
    laws in one comparison split back per law.  Closure is one least-squares solve
    for the ideal coordinates of all m p products b_i a_l, each required to
    reproduce its product by that rule at scale ||b_i a_l||, giving ``left_mult``.
    Rows whose norms overflow are decided exactly, times 2^-e.
    """
    m = algebra.m
    if ideal.basis.shape[0] != m:
        raise ShapeMismatch(
            f"ideal basis must have {m} rows, got {ideal.basis.shape[0]}"
        )
    mult, invol, u, tol = algebra.mult, algebra.invol, algebra.unit, cfg.cmp_tol
    eye = np.eye(m, dtype=np.complex128)
    failures = [] if _associative(mult, tol) else ["associativity"]
    # (b_i b_j)* against b_j* b_i*, indexed [j, i, :] on both sides
    star_of_products = (np.conj(mult) @ invol).transpose(1, 0, 2).reshape(m * m, m)
    products_of_stars = (invol @ (invol @ mult).reshape(m, m * m)).reshape(m * m, m)
    laws = [  # rows of one comparison, split back per law
        ("involution_not_involutive", np.conj(invol) @ invol, eye),
        ("involution_not_antimultiplicative", star_of_products, products_of_stars),
    ]
    if u is not None:  # u b_i, then b_i u
        unit_rows = np.concatenate([np.einsum("a,aik->ik", u, mult), u @ mult])
        laws.append(("unit", unit_rows, np.concatenate([eye, eye])))
    close = _close(*(np.concatenate([law[k] for law in laws]) for k in (1, 2)), tol)
    ends = np.cumsum([0] + [len(x) for _, x, _ in laws]).tolist()
    failures += [law[0] for law, lo, hi in zip(laws, ends, ends[1:]) if not close[lo:hi].all()]

    p = ideal.p
    left = np.zeros((m, 0, 0), dtype=np.complex128) if p == 0 else None
    if p > 0:
        if not nc.full_column_rank(ideal.basis, cfg):
            failures.append("ideal_rank")
        else:
            products = (mult.transpose(2, 0, 1) @ ideal.basis).reshape(m, m * p)
            coords = np.linalg.lstsq(ideal.basis, products, rcond=None)[0]
            if _close(ideal.basis @ coords, products, tol, axis=0, scale_x=False).all():
                left = coords.reshape(p, m, p).transpose(1, 0, 2)
            else:
                failures.append("ideal_closure")
    return AlgebraValidation(ok=not failures, failures=tuple(failures), left_mult=left)


def functional_gram(algebra: StarAlgebra, g) -> np.ndarray:
    """Full-algebra form matrix (g(b_i* b_j))_{ij} of a functional."""
    gv = nc.as_vector(g, "functional values")
    if gv.size != algebra.m:
        raise ShapeMismatch(f"functional must have length {algebra.m}, got {gv.size}")
    return np.einsum("ia,ajk,k->ij", algebra.invol, algebra.mult, gv)


@dataclass(frozen=True)
class _Functional:
    """One functional of one problem: its values ``w``, its induced operator
    ``spec`` (validated and factored) and the problem's stack ``left``.
    Each statement is computed on first read; a check that fails raises on
    every read and caches nothing."""

    w: np.ndarray
    spec: GramSpectrum
    left: np.ndarray

    @cached_property
    def hilbert(self) -> HilbertBoundReport:
        constant = self.spec.form(np.conj(self.w))
        return HilbertBoundReport(bounded=math.isfinite(constant), constant=constant)

    @cached_property
    def _forms(self) -> np.ndarray:
        """The Hermitian forms L_i† G L_i; ResultOutOfRange when they overflow."""
        left = self.left
        with np.errstate(over="ignore", invalid="ignore"):
            gx = nc._herm(left.conj().transpose(0, 2, 1) @ self.spec.gram @ left)
        return nc._finite(gx, "admissibility forms L_i† G L_i")

    @cached_property
    def _descends(self) -> np.ndarray:
        """Per basis element x: x keeps G's kernel in the kernel of its form,
        at the scale of the form's top eigenvalue; true when G has no kernel."""
        kernel = self.spec.kernel
        if not kernel.shape[1]:
            return np.ones(self.left.shape[0], dtype=bool)
        gx = self._forms
        top = np.maximum(np.linalg.eigvalsh(gx)[:, -1], 0.0)
        leak = np.einsum("ak,iab,bk->ik", kernel.conj(), gx, kernel).real
        root = np.sqrt(np.maximum(leak, 0.0))
        return nc._within(root, np.sqrt(top)[:, None], self.spec.cfg.cmp_tol).all(axis=1)

    @property
    def admissible(self) -> bool:
        return bool(self._descends.all())

    @cached_property
    def admissibility(self) -> AdmissibilityReport:
        """lambda_i from the forms, one batched eigensolve; inf where x does not descend."""
        spec = self.spec
        lambdas = np.zeros(self.left.shape[0])
        if spec.r:
            w = spec.embed.conj().T @ self._forms @ spec.embed
            lambdas = np.maximum(np.linalg.eigvalsh(nc._herm(w))[:, -1], 0.0)
        lambdas[~self._descends] = math.inf
        return AdmissibilityReport(admissible=self.admissible, lambdas=lambdas)

    def require_admissible(self) -> None:
        if not self.admissible:
            raise NotAdmissible(
                "left multiplication does not descend to the auxiliary space",
                certificate=self.admissibility.lambdas,
            )

    @cached_property
    def gns(self) -> GnsData:
        if not self.hilbert.bounded:
            raise NotHilbertBounded(
                "functional is not dominated by its quadratic form on the ideal"
            )
        self.require_admissible()
        spec = self.spec
        coord = np.sqrt(spec.lam)[:, None] * spec.u.conj().T
        pi = tuple(coord @ self.left @ spec.embed)
        zeta = spec.embed.conj().T @ np.conj(self.w)
        return GnsData(spec.r, spec.gram, pi, zeta, spec.j.conj().T)

    @cached_property
    def f_n(self) -> np.ndarray:
        zeta = self.gns.zeta
        return np.array([np.vdot(zeta, p @ zeta) for p in self.gns.pi], dtype=np.complex128)


@dataclass(frozen=True)
class _Problem:
    """An algebra and a left ideal, validated once.

    ``left`` is the validation's stack L (``left[i]`` the ideal-coordinate
    matrix of a -> b_i a) and ``records`` holds one :class:`_Functional`
    per functional, keyed by its values' bytes.  What a record holds is
    read, never written: the statements return it as it is.
    """

    algebra: StarAlgebra
    ideal: LeftIdeal
    cfg: ToleranceConfig
    left: np.ndarray
    records: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def validated(
        cls, algebra: StarAlgebra, ideal: LeftIdeal, cfg: ToleranceConfig
    ) -> _Problem:
        report = validate_algebra(algebra, ideal, cfg)
        report.raise_if_invalid()
        return cls(algebra, ideal, cfg, report.left_mult)

    @cached_property
    def basis_bracket(self):
        """The sigma_max bracket of the ideal basis, shared by every record."""
        return nc._sigma_max_bracket(self.ideal.basis)

    def _action(self, w: np.ndarray) -> np.ndarray:
        """Ad of the functional with values ``w``: column j is (f(b_k* a_j))_k."""
        return self.algebra.invol @ (w @ self.left)

    def record(self, f) -> _Functional:
        """The functional's record, holding its own copy of the values.
        Validation accepted the ideal basis (the whole-algebra basis is the
        identity), so the induced operator's is accepted with its bracket."""
        w = nc.as_vector(f, "functional values")
        if w.size != self.ideal.p:
            raise ShapeMismatch(f"functional must have length {self.ideal.p}, got {w.size}")
        key = w.tobytes()
        if key not in self.records:
            op = PartialOperator(self.ideal.basis, self._action(w))
            spec = _spectrum(op, self.cfg, self.basis_bracket)
            self.records[key] = _Functional(w.copy(), spec, self.left)
        return self.records[key]

    def extend_unital(self, f) -> np.ndarray:
        if self.algebra.unit is None:
            raise NoUnit("algebra has no unit")
        rec = self.record(f)
        rec.require_admissible()
        try:
            a_n = rec.spec.a_n
        except NotExtendible as exc:
            raise NotHilbertBounded(
                "functional is not Hilbert bounded despite admissibility"
            ) from exc
        return np.conj(a_n @ self.algebra.unit)

    def representable(self, g) -> bool:
        """On the whole-algebra problem: g passes the checks of the GNS build,
        without the build.  They factor the form (g(b_i* b_j))_ij itself, so
        a g that is not positive fails them as NonPsdGram or NonHermitianGram."""
        try:
            rec = self.record(g)
        except (NonPsdGram, NonHermitianGram):
            return False
        return rec.hilbert.bounded and rec.admissible

    def f_max(self, f, g) -> np.ndarray:
        gv = nc.as_vector(g, "bound functional")
        if gv.size != self.algebra.m:
            raise ShapeMismatch(f"bound functional must have length {self.algebra.m}")
        # the whole-algebra ideal: its L is the structure tensor, no solve
        ideal, left = whole_algebra_ideal(self.algebra), self.algebra.mult.transpose(0, 2, 1)
        whole = _Problem(self.algebra, ideal, self.cfg, left)
        if not whole.representable(gv):
            raise NotRepresentable("bound functional is not representable")
        rec = self.record(f)
        head = gv - rec.f_n
        try:  # g dominates f_N iff the Gram (g - f_N)(b_i* b_j) of its record validates
            whole.record(head)
        except (NonPsdGram, NonHermitianGram) as exc:
            # the least eigenvector of that Gram, which is Ad as D = I
            raise BoundNotDominating(
                "bound functional does not dominate the minimal extension",
                certificate=nc._eigh(nc._herm(whole._action(head))).eigenvectors[:, 0],
            ) from exc
        result = gv - self.record(self.ideal.basis.T @ gv - rec.w).f_n
        for name, candidate in (("g - f_N", head), ("f_max", result)):
            if not whole.representable(candidate):
                raise NotRepresentable(
                    f"{name} failed the constructive representability check"
                )
        return result


def induced_operator(
    algebra: StarAlgebra, ideal: LeftIdeal, f, cfg: ToleranceConfig = DEFAULT_TOL
) -> PartialOperator:
    """Partial operator of the functional: action column j is (f(b_k* a_j))_k.

    Its Gram matrix collects the form values f(a_i* a_j); Hermitianness
    and positivity of that Gram are exactly positivity of f on the ideal.
    """
    return _Problem.validated(algebra, ideal, cfg).record(f).spec.op


def is_hilbert_bounded(
    algebra: StarAlgebra, ideal: LeftIdeal, f, cfg: ToleranceConfig = DEFAULT_TOL
) -> HilbertBoundReport:
    """Sharp constant in |f(a)|^2 <= M f(a* a), +inf when there is none."""
    return _Problem.validated(algebra, ideal, cfg).record(f).hilbert


def is_admissible(
    algebra: StarAlgebra, ideal: LeftIdeal, f, cfg: ToleranceConfig = DEFAULT_TOL
) -> AdmissibilityReport:
    """Per-basis growth constants lambda_x of f(a* x* x a) against f(a* a).

    Finiteness over the basis extends to arbitrary elements: expanding
    x in the basis bounds f(a* x* x a) by a fixed combination of the
    basis constants, so existence for all x follows.
    """
    return _Problem.validated(algebra, ideal, cfg).record(f).admissibility


def gns(
    algebra: StarAlgebra, ideal: LeftIdeal, f, cfg: ToleranceConfig = DEFAULT_TOL
) -> GnsData:
    """Build the GNS triple of an admissible, Hilbert bounded functional.

    The auxiliary space is realized on C^r through the spectral
    coordinates of the Gram matrix, exactly as in the operator picture;
    pi pushes left multiplication through that coordinate map, and zeta
    represents f itself on the embedded ideal.
    """
    return _Problem.validated(algebra, ideal, cfg).record(f).gns


def extend_functional(
    algebra: StarAlgebra, ideal: LeftIdeal, f, cfg: ToleranceConfig = DEFAULT_TOL
) -> np.ndarray:
    """Minimal representable extension: f_N(b_k) = <pi(b_k) zeta, zeta>."""
    return _Problem.validated(algebra, ideal, cfg).record(f).f_n


def fn_on_positive(
    algebra: StarAlgebra, ideal: LeftIdeal, f, x, cfg: ToleranceConfig = DEFAULT_TOL
) -> float:
    """f_N(x* x) = ||J* x||^2, the supremum of |f(x* a)|^2 over f(a* a) <= 1."""
    xv = nc.as_vector(x, "x")
    if xv.size != algebra.m:
        raise ShapeMismatch(f"x must have length {algebra.m}, got {xv.size}")
    data = _Problem.validated(algebra, ideal, cfg).record(f).gns
    return float(np.linalg.norm(data.j_star_full @ xv) ** 2)


def extend_functional_unital(
    algebra: StarAlgebra, ideal: LeftIdeal, f, cfg: ToleranceConfig = DEFAULT_TOL
) -> np.ndarray:
    """Unital shortcut f_N(x) = conj(<a_n 1, x>) through the minimal extension.

    Hilbert boundedness is not demanded up front; it is derived, and a
    failure of the underlying extension construction is surfaced as
    NotHilbertBounded (a unit outside the ideal cannot force the bound).
    """
    return _Problem.validated(algebra, ideal, cfg).extend_unital(f)


def functional_leq(
    algebra: StarAlgebra, f1, f2, cfg: ToleranceConfig = DEFAULT_TOL
) -> bool:
    """Order on functionals: (f2 - f1)(x* x) >= 0 for all x, via the form matrix."""
    diff = nc.as_vector(f2) - nc.as_vector(f1)
    return nc.is_psd(functional_gram(algebra, diff), cfg)


def is_representable(
    algebra: StarAlgebra, g, cfg: ToleranceConfig = DEFAULT_TOL
) -> bool:
    """Decide representability constructively: the checks of the GNS build on (A, A, g)."""
    return _Problem.validated(algebra, whole_algebra_ideal(algebra), cfg).representable(g)


def f_max(
    algebra: StarAlgebra, ideal: LeftIdeal, f, g, cfg: ToleranceConfig = DEFAULT_TOL
) -> np.ndarray:
    """Largest representable extension of f dominated by g.

    Mirrors the operator construction: f_max = g - (g - f)_N.  The
    outputs are checked to be representable rather than assumed (the
    dominated-implies-representable step is an external fact here).
    """
    return _Problem.validated(algebra, ideal, cfg).f_max(f, g)
