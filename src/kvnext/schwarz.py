"""Generalized Schwarz inequality for families of positive operators.

For PSD matrices A_1..A_k and vectors x_1..x_k,

    || sum_j A_j x_j ||^2  <=  || sum_j A_j || * sum_j <A_j x_j, x_j>,

and the constant || sum_j A_j || is smallest possible.  The proof's
column operator V x = (A_1 x, ..., A_k x) into the direct sum of the
auxiliary spaces H_{A_j} is materialized as the stacked matrix of square
roots V = (A_1^{1/2}; ...; A_k^{1/2}).  The sharp constant is
||V V†|| = ||V† V||: the power iteration estimating it starts and ends in
the kn coordinates of V V†, and runs its middle steps on the n x n Gram
V† V by repeated squaring, so the (kn) x (kn) coupling is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import NotPsd, ShapeMismatch
from .numcore import DEFAULT_TOL, ToleranceConfig


@dataclass(frozen=True)
class GapReport:
    lhs: float
    rhs: float
    constant: float
    holds: bool  # lhs <= rhs by the cmp_tol rule at the scale of rhs


def _not_psd(j: int) -> NotPsd:
    return NotPsd(f"A_{j} is not positive semidefinite within tolerance")


@dataclass(frozen=True)
class _Family:
    """A_1..A_k of one common square shape, validated once: each A_j is
    tested for positivity inside the one ``eigh`` that also yields its
    square root, so the gap and the estimate read the same factorizations."""

    mats: list[np.ndarray]
    eigens: list[nc.HermitianEigen]
    cfg: ToleranceConfig

    @classmethod
    def validated(cls, ops, cfg: ToleranceConfig) -> _Family:
        if not ops:
            raise ShapeMismatch("need at least one operator")
        mats = [nc.as_matrix(a, f"A_{j}") for j, a in enumerate(ops)]
        n = mats[0].shape[0]
        for j, m in enumerate(mats):
            if m.shape != (n, n):
                raise ShapeMismatch(f"A_{j} has shape {m.shape}, expected {(n, n)}")
        eigens = []
        for j, m in enumerate(mats):
            try:
                eigens.append(nc._psd_eigen(m, cfg))
            except NotPsd as exc:
                raise _not_psd(j) from exc
        return cls(mats, eigens, cfg)

    def gap(self, xs: list[np.ndarray]) -> GapReport:
        """Both sides; ResultOutOfRange when a side or sum_j A_j overflows."""
        with np.errstate(over="ignore", invalid="ignore"):  # tested just below
            total = nc._finite(sum(self.mats), "sum_j A_j")
            lhs = float(np.linalg.norm(sum(m @ x for m, x in zip(self.mats, xs))) ** 2)
            forms = sum(float(np.real(np.vdot(x, m @ x))) for m, x in zip(self.mats, xs))
        lhs = nc._finite(lhs, "left side ||sum_j A_j x_j||^2")
        constant = float(np.linalg.eigvalsh(nc._herm(total)).max(initial=0.0))
        rhs = nc._finite(constant * forms, "right side ||sum_j A_j|| sum_j <A_j x_j, x_j>")
        holds = nc._within(lhs - rhs, rhs, self.cfg.cmp_tol)
        return GapReport(lhs=lhs, rhs=rhs, constant=constant, holds=holds)

    def estimate(self, iterations: int, seed: int) -> float:
        """The power iteration of :func:`minimal_constant_estimate`, its
        T - 1 middle steps run on g = V† h (Golub & Van Loan, 4th ed., 8.2)."""
        v = np.vstack([nc._sqrt(eig, self.cfg) for eig in self.eigens])
        vh = v.conj().T
        rng = np.random.default_rng(seed)
        h = rng.standard_normal(v.shape[0]) + 1j * rng.standard_normal(v.shape[0])
        g = _unit(vh @ h)
        steps = max(int(iterations), 1) - 1
        power = None  # M^(2^i) up to scale in pass i, which reads bit i of T - 1
        while g is not None and steps:
            power, _ = nc._pow2_scaled(vh @ v if power is None else power @ power)
            if steps & 1:
                g = _unit(power @ g)
            steps >>= 1
        h = None if g is None else _unit(v @ g)
        if h is None:
            return 0.0
        return float(np.linalg.norm(vh @ h) ** 2)


def _unit(x: np.ndarray) -> np.ndarray | None:
    """x / ||x||, or None for x = 0."""
    norm = np.linalg.norm(x)
    return None if norm <= 0.0 else x / norm


def _checked_family(ops, vecs, cfg: ToleranceConfig) -> tuple[_Family, list[np.ndarray]]:
    """The validated family and the x_j, checked in that order."""
    if len(ops) != len(vecs) or not ops:
        raise ShapeMismatch("need equally many operators and vectors, at least one")
    family = _Family.validated(ops, cfg)
    n = family.mats[0].shape[0]
    xs = [nc.as_vector(x, f"x_{j}") for j, x in enumerate(vecs)]
    for j, x in enumerate(xs):
        if x.size != n:
            raise ShapeMismatch(f"x_{j} has length {x.size}, expected {n}")
    return family, xs


def schwarz_gap(ops, vecs, cfg: ToleranceConfig = DEFAULT_TOL) -> GapReport:
    """Evaluate both sides of the inequality for one family of vectors."""
    family, xs = _checked_family(ops, vecs, cfg)
    return family.gap(xs)


def minimal_constant_estimate(
    ops, iterations: int, seed: int, cfg: ToleranceConfig = DEFAULT_TOL
) -> float:
    """Estimate the sharp constant || sum_j A_j || by T = max(iterations, 1)
    power steps h <- V V† h / ||V V† h|| from a seeded start h_0, where V
    stacks the square roots of the A_j.

    The T-th iterate is V M^(T-1) V† h_0 up to scale, with M = V† V =
    sum_j A_j, so M^(T-1) is applied in n coordinates by about log2 T
    squarings, each rescaled by an exact power of two.  The returned
    ||V† h||^2 for a unit h is a certified lower bound that increases to
    || sum_j A_j || with the iteration count.
    """
    return _Family.validated(ops, cfg).estimate(iterations, seed)
