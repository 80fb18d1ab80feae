"""Minimal positive extension of a partial operator and its form calculus.

The construction factors through the auxiliary Hilbert space H_A, the
range of A completed under the inner product ``<A x, A x'> := <A x, x'>``.
In domain coordinates that inner product is the Gram matrix G, so H_A is
realized concretely on C^r, r = rank G, via the spectral coordinates

    class of (A D c)  |->  Lam_r^{1/2} U_r† c,      G = U Lam U†.

The embedding J: H_A -> C^n and its adjoint J* then have matrices

    j = Ad U_r Lam_r^{-1/2},          j* = j†,

and the minimal extension is the composition a_n = j j* = Ad G+ Ad†.
Minimality and the two closed-form expressions for the quadratic form
``<a_n y, y>`` are exposed as separate operations so they can be checked
against each other and against brute-force maximization.

Each operation factors G exactly once, through
``partial_op.gram_spectrum``, and reads U_r, Lam_r and the extendibility
verdict off that one spectrum; j is formed from them when first read.
The norm of a_n is the Hilbert bound, the top eigenvalue of the r x r
matrix j† j, so no n x n eigensolve is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotExtendible
from .numcore import DEFAULT_TOL, ToleranceConfig, _finite, _herm
from .partial_op import GramSpectrum, PartialOperator, gram_spectrum


@dataclass(frozen=True)
class HAFactorization:
    """Matrix of J on an orthonormal basis of H_A (r = rank G); J* is its
    conjugate transpose."""

    r: int
    j_matrix: np.ndarray


@dataclass(frozen=True)
class KvnResult:
    a_n: np.ndarray
    factorization: HAFactorization
    norm: float


# What ResultOutOfRange names when a_n, or a quantity read off it, overflows.
_A_N = "minimal extension a_n = Ad G+ Ad†"


def _extendible(spec: GramSpectrum) -> GramSpectrum:
    """``spec`` itself, or NotExtendible carrying its witness."""
    if not spec.extendible:
        raise NotExtendible(
            "no positive extension exists: the form vanishes along a direction "
            "the operator does not kill",
            certificate=spec.witness,
        )
    return spec


def _minimal_extension(spec: GramSpectrum) -> np.ndarray:
    """a_n = Ad G+ Ad†, read off a spectrum the caller already holds;
    raises ResultOutOfRange when it overflows."""
    image = _extendible(spec).op.action @ spec.u
    a_n = (image / spec.lam) @ image.conj().T
    return _finite(_herm(a_n), _A_N)


def krein_von_neumann(
    p: PartialOperator, cfg: ToleranceConfig = DEFAULT_TOL
) -> KvnResult:
    """Construct the minimal positive extension a_n = Ad G+ Ad†.

    The closed form is primary; the factorization J J* is carried along
    and agrees with it within tolerance.  Every positive extension of the
    operator dominates a_n in the Loewner order.
    """
    return _kvn(gram_spectrum(p, cfg))


def _kvn(spec: GramSpectrum) -> KvnResult:
    """The result read off a spectrum the caller already holds."""
    return KvnResult(
        a_n=_minimal_extension(spec),
        factorization=HAFactorization(r=spec.r, j_matrix=spec.j),
        norm=spec.hilbert_bound(),
    )


def qform_sup(p: PartialOperator, y, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    """sup { |<A x, y>|^2 : x in dom A, <A x, x> <= 1 } = v† G+ v, v = Ad† y.

    Equals the quadratic form ``<a_n y, y>`` of the minimal extension.
    """
    return _extendible(gram_spectrum(p, cfg)).form(p.adjoint_action(y))


def qform_shift(p: PartialOperator, y, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    """sup { 2 Re <A x, y> - <A x, x> : x in dom A }, by its stationary point.

    The maximizer solves G c = v on ran G; evaluating the shifted form
    there gives the same value as :func:`qform_sup`, through a different
    arithmetic path; ResultOutOfRange when that path overflows.
    """
    spec = _extendible(gram_spectrum(p, cfg))
    v = p.adjoint_action(y)
    c = spec.u @ ((spec.u.conj().T @ v) / spec.lam)
    value = 2.0 * np.real(v.conj() @ c) - np.real(c.conj() @ spec.gram @ c)
    return float(_finite(value, "shifted form 2 Re v† c - c† G c"))


def an_norm(p: PartialOperator, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    """Operator norm of the minimal extension, off the PSD matrix a_n: the
    Hilbert bound (``KvnResult.norm``, off j† j) by a path that forms no J."""
    a_n = _minimal_extension(gram_spectrum(p, cfg))
    return float(np.linalg.eigvalsh(a_n).max(initial=0.0))
