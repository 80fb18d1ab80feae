"""Positive definite operator-valued kernels on a finite index set.

A kernel assigns an n x n matrix K(s, t) to every pair from {1..m}.  It
is positive definite when the assembled (m n) x (m n) block matrix is
PSD.  Functions u: {1..m} -> C^n are flattened index-major: block s of
the flat vector holds u(s), and the assembled operator places K(s, t)
in block row t, block column s, so that

    <A u, v> = sum_{s,t} <K(s,t) u(s), v(t)>.

Partially specified kernels are completed minimally by applying the
minimal-extension construction to the associated partial operator on
the flattened space and reading the blocks back off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import NotPsd, ShapeMismatch
from .numcore import DEFAULT_TOL, ToleranceConfig
from .partial_op import PartialOperator, gram_spectrum


@dataclass(frozen=True)
class Kernel:
    """blocks[s, t] = K(s, t); shape (m, m, n, n)."""

    blocks: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.blocks, dtype=np.complex128)
        if b.ndim != 4 or b.shape[0] != b.shape[1] or b.shape[2] != b.shape[3]:
            raise ShapeMismatch(f"kernel blocks must have shape (m, m, n, n), got {b.shape}")
        object.__setattr__(self, "blocks", b)

    @property
    def m(self) -> int:
        return self.blocks.shape[0]

    @property
    def n(self) -> int:
        return self.blocks.shape[2]


@dataclass(frozen=True)
class KernelProblem:
    """A partially specified kernel: prescribed values of the associated
    operator on a subspace of flattened finitely supported functions."""

    m: int
    n: int
    sub: PartialOperator

    def __post_init__(self):
        if self.sub.n != self.m * self.n:
            raise ShapeMismatch(
                f"underlying operator lives on C^{self.sub.n}, expected C^{self.m * self.n}"
            )


def operator_from_kernel(kernel: Kernel) -> np.ndarray:
    """Assemble the block matrix of the kernel (block (t, s) is K(s, t))."""
    size = kernel.m * kernel.n
    return kernel.blocks.transpose(1, 2, 0, 3).copy().reshape(size, size)


def _blocks(mat: np.ndarray, m: int, n: int) -> np.ndarray:
    """Inverse of :func:`operator_from_kernel`: ``[s, t]`` is block (t, s)."""
    return mat.reshape(m, n, m, n).transpose(2, 0, 1, 3)


def kernel_from_operator(
    matrix, m: int, n: int, cfg: ToleranceConfig = DEFAULT_TOL
) -> Kernel:
    """Read the kernel blocks off a PSD operator on the flattened space."""
    mat = nc.as_matrix(matrix)
    if mat.shape != (m * n, m * n):
        raise ShapeMismatch(f"matrix must be {m * n} x {m * n}, got {mat.shape}")
    if not nc.is_psd(mat, cfg):
        raise NotPsd("operator is not positive semidefinite within tolerance")
    return Kernel(blocks=_blocks(mat, m, n).copy())


def is_positive_definite_kernel(
    kernel: Kernel, cfg: ToleranceConfig = DEFAULT_TOL
) -> bool:
    return nc.is_psd(operator_from_kernel(kernel), cfg)


def extend_kernel(problem: KernelProblem, cfg: ToleranceConfig = DEFAULT_TOL) -> Kernel:
    """Minimal positive-definite kernel whose operator extends the data.

    Every kernel compatible with the prescription dominates the result in
    the order induced by the assembled operators.
    """
    # a_n is PSD by construction: its blocks need no further test
    minimal = gram_spectrum(problem.sub, cfg).a_n
    return Kernel(blocks=_blocks(minimal, problem.m, problem.n).copy())


def kernel_preceq(k: Kernel, l: Kernel, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Kernel order: compare the assembled operators in the Loewner order."""
    if (k.m, k.n) != (l.m, l.n):
        raise ShapeMismatch(
            f"kernels have different shapes: ({k.m}, {k.n}) vs ({l.m}, {l.n})"
        )
    return nc.loewner_leq(
        operator_from_kernel(k), operator_from_kernel(l), cfg
    )
