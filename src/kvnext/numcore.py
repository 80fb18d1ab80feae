"""Dense complex linear-algebra primitives with a shared tolerance policy.

Conventions used across the package:

* Matrices are dense ``numpy`` arrays of ``complex128``, row-major.
* The ambient spaces are C^n paired by the canonical anti-duality
  ``<f, x> = sum_i f[i] * conj(x[i])`` (linear in ``f``, conjugate linear
  in ``x``), so adjoints are plain conjugate transposes.
* Rank decisions are relative: an eigenvalue counts as nonzero when it
  exceeds ``rank_rel_eps`` times the largest eigenvalue
  (:func:`numerical_rank`).  Gram matrices of partial operators scale the
  cutoff by the data instead; see ``partial_op.gram_spectrum``.
* Positivity tolerates eigenvalues down to ``-psd_tol * (1 + max|eig|)``
  to absorb eigensolver noise on exactly singular inputs
  (:func:`spectrum_is_psd`).

Every function is pure and deterministic for a fixed input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, NotPsd, NotSquare, ShapeMismatch


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical policy shared by all modules.

    rank_rel_eps: relative eigenvalue cutoff for numerical rank
    psd_tol:      allowed negative eigenvalue magnitude, relative to scale
    cmp_tol:      entrywise / residual comparison tolerance
    """

    rank_rel_eps: float = 1e-10
    psd_tol: float = 1e-9
    cmp_tol: float = 1e-8

    def __post_init__(self):
        for name in ("rank_rel_eps", "psd_tol", "cmp_tol"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ValueError(f"{name} must lie strictly between 0 and 1, got {v}")


DEFAULT_TOL = ToleranceConfig()
STRICT_TOL = ToleranceConfig(rank_rel_eps=1e-12, psd_tol=1e-11, cmp_tol=1e-10)


@dataclass(frozen=True)
class HermitianEigen:
    """Spectral decomposition M = V diag(w) V†, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-d complex array (1-d input becomes a column)."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-dimensional, got ndim={a.ndim}")
    if a.size and not np.all(np.isfinite(a)):
        raise ShapeMismatch(f"{name} contains non-finite entries")
    return a


def as_vector(v, name: str = "vector") -> np.ndarray:
    a = np.asarray(v, dtype=np.complex128).reshape(-1)
    if a.size and not np.all(np.isfinite(a)):
        raise ShapeMismatch(f"{name} contains non-finite entries")
    return a


def fro(m) -> float:
    return float(np.linalg.norm(m))


def _require_square(m: np.ndarray, name: str) -> None:
    if m.shape[0] != m.shape[1]:
        raise NotSquare(f"{name} must be square, got shape {m.shape}")


def hermitian_residual(m: np.ndarray) -> float:
    return fro(m - m.conj().T)


def is_hermitian(m, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    a = as_matrix(m)
    _require_square(a, "matrix")
    return hermitian_residual(a) <= cfg.cmp_tol * (1.0 + fro(a))


def spectrum_is_psd(w: np.ndarray, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether eigenvalues ``w`` pass min w >= -psd_tol * (1 + max|w|)."""
    if w.size == 0:
        return True
    return float(np.min(w)) >= -cfg.psd_tol * (1.0 + float(np.max(np.abs(w))))


def hermitian_eigen(m, cfg: ToleranceConfig = DEFAULT_TOL) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    The input is symmetrized before factorization so that the result is a
    function of the Hermitian part only; inputs whose anti-Hermitian part
    exceeds ``cmp_tol`` relative are rejected.
    """
    a = as_matrix(m)
    if not is_hermitian(a, cfg):
        raise NotHermitian(
            f"symmetry residual {hermitian_residual(a):.3e} exceeds tolerance"
        )
    h = 0.5 * (a + a.conj().T)
    w, v = np.linalg.eigh(h)
    return HermitianEigen(eigenvalues=w, eigenvectors=v)


def numerical_rank(eigenvalues: np.ndarray, cfg: ToleranceConfig = DEFAULT_TOL) -> int:
    """Number of eigenvalues above the relative cutoff (PSD spectra)."""
    top = float(np.max(eigenvalues, initial=0.0))
    if top <= 0.0:
        return 0
    return int(np.count_nonzero(eigenvalues > cfg.rank_rel_eps * top))


def full_column_rank(m: np.ndarray, cfg: ToleranceConfig = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether the columns of ``m`` are independent, and sigma_max(m).

    Each singular value of ``m`` must exceed rank_rel_eps * sigma_max (not
    squared: these are not eigenvalues of m† m).  More columns than rows
    always fail, since the SVD then returns one value per row only.
    """
    sv = np.linalg.svd(m, compute_uv=False)
    top = float(np.max(sv, initial=0.0))
    return bool(m.shape[1] <= m.shape[0] and np.all(sv > cfg.rank_rel_eps * top)), top


def _kept(eig: HermitianEigen, cfg: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs above the :func:`numerical_rank` cutoff, descending."""
    low = eig.eigenvalues.size - numerical_rank(eig.eigenvalues, cfg)
    return eig.eigenvalues[low:][::-1].copy(), eig.eigenvectors[:, low:][:, ::-1].copy()


def positive_spectrum(
    m, cfg: ToleranceConfig = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a Hermitian PSD matrix above the rank cutoff.

    Returns ``(lam, u)`` with ``lam`` descending positive eigenvalues of
    numerical rank length and ``u`` the matching orthonormal columns.
    """
    return _kept(hermitian_eigen(m, cfg), cfg)


def is_psd(m, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Hermitian within cmp_tol and spectrum above -psd_tol * (1 + max|eig|)."""
    a = as_matrix(m)
    if not is_hermitian(a, cfg):
        return False
    return spectrum_is_psd(np.linalg.eigvalsh(0.5 * (a + a.conj().T)), cfg)


def _psd_eigen(m, cfg: ToleranceConfig) -> HermitianEigen:
    """``eigh`` of a matrix that passes :func:`is_psd`, the test read off its
    eigenvalues; raises NotPsd otherwise, also for non-Hermitian input."""
    a = as_matrix(m)
    if is_hermitian(a, cfg):  # raises NotSquare first
        w, v = np.linalg.eigh(0.5 * (a + a.conj().T))
        if spectrum_is_psd(w, cfg):
            return HermitianEigen(eigenvalues=w, eigenvectors=v)
    raise NotPsd("matrix is not positive semidefinite within tolerance")


def pseudo_inverse(m, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse of a Hermitian PSD matrix via its spectrum.

    Eigenvalues below ``rank_rel_eps`` times the largest one are treated as
    exact zeros, so the result is supported on the numerical range only.
    """
    lam, u = _kept(_psd_eigen(m, cfg), cfg)
    return (u / lam) @ u.conj().T


def psd_sqrt(m, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Positive square root S of a PSD matrix, S @ S = M within cmp_tol.

    Eigenvalues below the rank cutoff are zeroed first; otherwise the
    square root would carry sqrt(machine-eps) noise in kernel directions
    and corrupt downstream range decisions.
    """
    return _sqrt(_psd_eigen(m, cfg), cfg)


def _sqrt(eig: HermitianEigen, cfg: ToleranceConfig) -> np.ndarray:
    """:func:`psd_sqrt` read off the eigendecomposition of a PSD matrix."""
    lam, u = _kept(eig, cfg)
    s = (u * np.sqrt(lam)) @ u.conj().T
    return 0.5 * (s + s.conj().T)


def psd_sqrt_pinv(m, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Pseudo-inverse square root M^{+1/2}, supported on the numerical range."""
    return _sqrt_pinv(_psd_eigen(m, cfg), cfg)


def _sqrt_pinv(eig: HermitianEigen, cfg: ToleranceConfig) -> np.ndarray:
    """:func:`psd_sqrt_pinv` read off the eigendecomposition of a PSD matrix."""
    lam, u = _kept(eig, cfg)
    return (u / np.sqrt(lam)) @ u.conj().T


def loewner_leq(a, b, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Loewner order: A <= B iff B - A is PSD within tolerance."""
    am = as_matrix(a, "A")
    bm = as_matrix(b, "B")
    _require_square(am, "A")
    _require_square(bm, "B")
    if am.shape != bm.shape:
        raise ShapeMismatch(f"shape mismatch {am.shape} vs {bm.shape}")
    for name, m in (("A", am), ("B", bm)):
        if not is_hermitian(m, cfg):
            raise NotHermitian(f"{name} is not Hermitian within tolerance")
    return is_psd(bm - am, cfg)


def _span_coords(x: np.ndarray, q: np.ndarray, cfg: ToleranceConfig) -> np.ndarray | None:
    """Coordinates q† X of X over the orthonormal columns q, or None when X
    is not in their span: ``||X - q q† X||_F > cmp_tol * (1 + ||X||_F)``."""
    coords = q.conj().T @ x
    if fro(x - q @ coords) > cfg.cmp_tol * (1.0 + fro(x)):
        return None
    return coords


def range_included(x, y, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether every column of X lies in the column space of Y.

    ran(Y) is spanned by the left singular vectors of one thin SVD of Y
    whose singular values pass :func:`full_column_rank`'s rule,
    sigma > rank_rel_eps * sigma_max; X must lie in their span
    (:func:`_span_coords`).
    """
    xm = as_matrix(x, "X")
    ym = as_matrix(y, "Y")
    if xm.shape[0] != ym.shape[0]:
        raise ShapeMismatch(f"row counts differ: {xm.shape[0]} vs {ym.shape[0]}")
    if xm.size == 0:
        return True
    u, sv, _ = np.linalg.svd(ym, full_matrices=False)
    keep = sv > cfg.rank_rel_eps * float(np.max(sv, initial=0.0))
    return _span_coords(xm, u[:, keep], cfg) is not None
