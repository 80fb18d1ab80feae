"""Generalized Schwarz inequality for families of positive operators.

For PSD matrices A_1..A_k and vectors x_1..x_k,

    || sum_j A_j x_j ||^2  <=  || sum_j A_j || * sum_j <A_j x_j, x_j>,

and the constant || sum_j A_j || is smallest possible.  The proof's
column operator V x = (A_1 x, ..., A_k x) into the direct sum of the
auxiliary spaces H_{A_j} is materialized as the stacked matrix of square
roots, which both certifies the inequality and drives the power
iteration estimating the sharp constant.
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
        total = sum(self.mats)
        lhs = float(np.linalg.norm(sum(m @ x for m, x in zip(self.mats, xs))) ** 2)
        constant = float(np.max(np.linalg.eigvalsh(0.5 * (total + total.conj().T)), initial=0.0))
        forms = sum(float(np.real(np.vdot(x, m @ x))) for m, x in zip(self.mats, xs))
        return GapReport(lhs=lhs, rhs=constant * forms, constant=constant)

    def estimate(self, iterations: int, seed: int) -> float:
        v = np.vstack([nc._sqrt(eig, self.cfg) for eig in self.eigens])
        coupling = v @ v.conj().T
        rng = np.random.default_rng(seed)
        h = rng.standard_normal(coupling.shape[0]) + 1j * rng.standard_normal(
            coupling.shape[0]
        )
        estimate = 0.0
        for _ in range(max(int(iterations), 1)):
            h = coupling @ h
            norm = np.linalg.norm(h)
            if norm <= 0.0:
                return 0.0
            h = h / norm
            estimate = float(np.linalg.norm(v.conj().T @ h) ** 2)
        return estimate


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
    """Estimate the sharp constant by power iteration on V V†.

    V stacks the square roots of the A_j, so V V† is the block matrix of
    root couplings and shares its norm with V† V = sum_j A_j.  The
    returned Rayleigh quotient is a certified lower bound that increases
    to || sum_j A_j || with the iteration count.
    """
    return _Family.validated(ops, cfg).estimate(iterations, seed)
