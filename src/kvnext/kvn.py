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
``partial_op.gram_spectrum``, and reads a_n, j and the extendibility
verdict off that one :class:`GramSpectrum`, the home of their formulas;
:class:`KvnResult` carries that spectrum as its ``factorization``.
The norm of a_n is the Hilbert bound, the top eigenvalue of the r x r
matrix j† j, so no n x n eigensolve is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numcore import DEFAULT_TOL, ToleranceConfig, _finite
from .partial_op import GramSpectrum, PartialOperator, gram_spectrum


@dataclass(frozen=True)
class KvnResult:
    """a_n, the spectrum it was read off (J is ``factorization.j``, r is
    ``factorization.r``) and the Hilbert bound ||a_n||."""

    a_n: np.ndarray
    factorization: GramSpectrum
    norm: float


def krein_von_neumann(
    p: PartialOperator, cfg: ToleranceConfig = DEFAULT_TOL
) -> KvnResult:
    """Construct the minimal positive extension a_n = Ad G+ Ad†.

    The closed form is primary; the factorization J J* is carried along
    and agrees with it within tolerance.  Every positive extension of the
    operator dominates a_n in the Loewner order.
    """
    spec = gram_spectrum(p, cfg)
    return KvnResult(a_n=spec.a_n, factorization=spec, norm=spec.hilbert_bound())


def qform_sup(p: PartialOperator, y, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    """sup { |<A x, y>|^2 : x in dom A, <A x, x> <= 1 } = v† G+ v, v = Ad† y.

    Equals the quadratic form ``<a_n y, y>`` of the minimal extension.
    """
    return gram_spectrum(p, cfg).require_extendible().form(p.adjoint_action(y))


def qform_shift(p: PartialOperator, y, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    """sup { 2 Re <A x, y> - <A x, x> : x in dom A }, by its stationary point.

    The maximizer solves G c = v on ran G; evaluating the shifted form
    there gives the same value as :func:`qform_sup`, through a different
    arithmetic path; ResultOutOfRange when that path overflows.
    """
    spec = gram_spectrum(p, cfg).require_extendible()
    v = p.adjoint_action(y)
    c = spec.u @ ((spec.u.conj().T @ v) / spec.lam)
    value = 2.0 * np.real(v.conj() @ c) - np.real(c.conj() @ spec.gram @ c)
    return float(_finite(value, "shifted form 2 Re v† c - c† G c"))


def an_norm(p: PartialOperator, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    """Operator norm of the minimal extension, off the PSD matrix a_n: the
    Hilbert bound (``KvnResult.norm``, off j† j) by a path that forms no J."""
    a_n = gram_spectrum(p, cfg).a_n
    return float(np.linalg.eigvalsh(a_n).max(initial=0.0))
