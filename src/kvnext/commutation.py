"""Intertwining relations preserved by the minimal positive extension.

If two operators B, C leave dom A invariant and intertwine with the
partial operator as ``C† A = A B`` and ``B† A = A C`` on the domain, the
same relations hold globally for the minimal extension:

    C† a_n = a_n B,        B† a_n = a_n C.

The hypotheses are read off one QR factorization D = q r of the validated
domain basis and compared columnwise; spectral boundedness of B C on the
domain, required in wider generality, is automatic here and recorded as
such.  The conclusion is read off the factor y = Ad U of a_n = w y†,
w = y Lam^{-1}, without forming a_n: C† a_n - a_n B = [C† y Lam^{-1}, -w]
[y, B† y]†, with C† y = (C† Ad) U and B† y = (B† Ad) U from the
hypotheses; it is -(B† a_n - a_n C)† as a_n = a_n†, so it measures both
relations; and ||a_n||_F = ||j† j||_F for j = y Lam^{-1/2}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import DomainNotInvariant, HypothesesFail, ShapeMismatch
from .numcore import DEFAULT_TOL, ToleranceConfig
from .partial_op import _A_N, PartialOperator, gram_spectrum


@dataclass(frozen=True)
class CommutationReport:
    hypotheses_hold: bool
    residual_cb: float
    residual_bc: float
    conclusion_holds: bool
    spectral_hypothesis: str = "automatic in finite dimensions"


def _hypothesis_status(
    p: PartialOperator, b: np.ndarray, c: np.ndarray, products: tuple, cfg: ToleranceConfig
) -> None:
    """Invariance and intertwining on the domain of an already validated
    ``p``, given ``products`` = (C† Ad, B† Ad); raises DomainNotInvariant or
    HypothesesFail for the first that fails."""
    # D is validated full column rank, so ran D = ran q and r is invertible:
    # no further rank decision is made here.
    q, r = np.linalg.qr(p.domain_basis)
    proj = []
    for name, m in (("B", b), ("C", c)):
        coords = nc._span_coords(m @ p.domain_basis, q, cfg)
        if coords is None:
            raise DomainNotInvariant(f"invariance: {name} does not leave the domain invariant")
        proj.append(coords)
    # one LU of r for both: M x_j in the domain basis, B's then C's
    coeff = np.hsplit(np.linalg.solve(r, np.hstack(proj)), 2)
    scale = nc.fro(p.action) * max(nc.fro(b), nc.fro(c), 1.0)
    for product, m_coeff, law in zip(products, coeff, ("C† A = A B", "B† A = A C")):
        if not nc._within(nc.fro(product - p.action @ m_coeff), scale, cfg.cmp_tol):
            raise HypothesesFail(f"{law} fails on the domain")


def verify_commutation(
    p: PartialOperator, b, c, cfg: ToleranceConfig = DEFAULT_TOL
) -> CommutationReport:
    """Check the hypotheses, then measure the intertwining residual of a_n.

    ``residual_cb`` and ``residual_bc`` are one number: a_n = a_n† makes
    B† a_n - a_n C = -(C† a_n - a_n B)†.  ``conclusion_holds`` must come out
    true whenever the preconditions do; a false value signals a tolerance
    or implementation fault and is reported rather than hidden.
    """
    bm = nc.as_matrix(b, "B")
    cm = nc.as_matrix(c, "C")
    spec = gram_spectrum(p, cfg)
    if bm.shape != (p.n, p.n) or cm.shape != (p.n, p.n):
        raise ShapeMismatch(f"B and C must be {p.n} x {p.n}, got {bm.shape} and {cm.shape}")
    cad, bad = cm.conj().T @ p.action, bm.conj().T @ p.action
    _hypothesis_status(p, bm, cm, (cad, bad), cfg)
    y = spec.image()
    left, right = np.hstack([cad @ spec.u / spec.lam, -y / spec.lam]), np.hstack([y, bad @ spec.u])
    residual = nc.fro(left @ right.conj().T)
    # J = (Ad U) Lam^{-1/2} off the y already formed; spec.j = Ad (U Lam^{-1/2})
    # would cost a second n x d x r GEMM per call
    j = y / np.sqrt(spec.lam)
    scale = nc.fro(nc._finite(j.conj().T @ j, _A_N)) * max(nc.fro(bm), nc.fro(cm))
    # an overflowed residual or scale would compare as a verdict
    nc._finite(np.array([residual, scale]), "the intertwining residual of a_n")
    return CommutationReport(
        hypotheses_hold=True,
        residual_cb=residual,
        residual_bc=residual,
        conclusion_holds=nc._within(residual, scale, cfg.cmp_tol),
    )
