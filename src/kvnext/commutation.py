"""Intertwining relations preserved by the minimal positive extension.

If two operators B, C leave dom A invariant and intertwine with the
partial operator as ``C† A = A B`` and ``B† A = A C`` on the domain, the
same relations hold globally for the minimal extension:

    C† a_n = a_n B,        B† a_n = a_n C.

The hypotheses are read off one QR factorization D = q r of the validated
domain basis and compared columnwise; spectral boundedness of B C on the
domain, required in wider generality, is automatic here and recorded as
such.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import DomainNotInvariant, HypothesesFail, ShapeMismatch
from .kvn import _minimal_extension
from .numcore import DEFAULT_TOL, ToleranceConfig
from .partial_op import PartialOperator, gram_spectrum


@dataclass(frozen=True)
class CommutationReport:
    hypotheses_hold: bool
    residual_cb: float
    residual_bc: float
    conclusion_holds: bool
    spectral_hypothesis: str = "automatic in finite dimensions"


def _hypothesis_status(
    p: PartialOperator, b: np.ndarray, c: np.ndarray, cfg: ToleranceConfig
) -> None:
    """Invariance and intertwining on the domain of an already validated
    ``p``; raises DomainNotInvariant or HypothesesFail for the first that fails."""
    if b.shape != (p.n, p.n) or c.shape != (p.n, p.n):
        raise ShapeMismatch(
            f"B and C must be {p.n} x {p.n}, got {b.shape} and {c.shape}"
        )
    if p.d == 0:
        return
    # D is validated full column rank, so ran D = ran q and r is invertible:
    # no further rank decision is made here.
    q, r = np.linalg.qr(p.domain_basis)
    coeff = {}
    for name, m in (("B", b), ("C", c)):
        proj = nc._span_coords(m @ p.domain_basis, q, cfg)
        if proj is None:
            raise DomainNotInvariant(f"invariance: {name} does not leave the domain invariant")
        coeff[name] = np.linalg.solve(r, proj)  # M x_j in the domain basis
    scale = cfg.cmp_tol * (
        1.0 + nc.fro(p.action) * max(nc.fro(b), nc.fro(c), 1.0)
    )
    if nc.fro(c.conj().T @ p.action - p.action @ coeff["B"]) > scale:
        raise HypothesesFail("C† A = A B fails on the domain")
    if nc.fro(b.conj().T @ p.action - p.action @ coeff["C"]) > scale:
        raise HypothesesFail("B† A = A C fails on the domain")


def verify_commutation(
    p: PartialOperator, b, c, cfg: ToleranceConfig = DEFAULT_TOL
) -> CommutationReport:
    """Check the hypotheses, then measure the intertwining residuals of a_n.

    ``conclusion_holds`` must come out true whenever the preconditions
    do; a false value signals a tolerance or implementation fault and is
    reported rather than hidden.
    """
    bm = nc.as_matrix(b, "B")
    cm = nc.as_matrix(c, "C")
    spec = gram_spectrum(p, cfg)
    _hypothesis_status(p, bm, cm, cfg)
    a_n = _minimal_extension(spec)
    residual_cb = nc.fro(cm.conj().T @ a_n - a_n @ bm)
    residual_bc = nc.fro(bm.conj().T @ a_n - a_n @ cm)
    tol = cfg.cmp_tol * (1.0 + nc.fro(a_n) * max(nc.fro(bm), nc.fro(cm)))
    return CommutationReport(
        hypotheses_hold=True,
        residual_cb=residual_cb,
        residual_bc=residual_bc,
        conclusion_holds=residual_cb <= tol and residual_bc <= tol,
    )
