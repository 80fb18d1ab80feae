"""Deterministic random generators and independent oracles for the tests.

Instances are built so their key properties hold by construction, giving
oracles that do not share arithmetic with the code under test:

* partial operators come from D = Q[:, :d], Ad = D G + D_perp Z, where
  extendibility is exactly "Z kills ker G" and can be forced either way;
* commuting instances come from a shared eigenbasis with eigenvalue
  multiplicities, so the intertwining relations hold exactly;
* commutative *-algebras are pointwise function algebras conjugated by a
  random unitary change of basis, where every functional computation has
  a closed form in the original coordinates.
"""

from __future__ import annotations

import numpy as np

from kvnext import LeftIdeal, PartialOperator, StarAlgebra


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_unitary(rng, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def orthonormal_columns(rng, n: int, d: int) -> np.ndarray:
    if d == 0:
        return np.zeros((n, 0), dtype=np.complex128)
    z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return np.linalg.qr(z)[0]


def random_psd(rng, n: int, rank: int | None = None) -> np.ndarray:
    """PSD matrix of exact rank (almost surely)."""
    rank = n if rank is None else rank
    if n == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    if rank == 0:
        return np.zeros((n, n), dtype=np.complex128)
    b = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    m = b @ b.conj().T / rank
    return 0.5 * (m + m.conj().T)


def random_hermitian(rng, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (z + z.conj().T)


def random_vector(rng, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def random_partial(
    rng,
    n: int | None = None,
    d: int | None = None,
    force: str = "extendible",
    orthonormal_domain: bool = False,
) -> PartialOperator:
    """Valid partial operator; ``force`` picks the extendibility class.

    force="extendible":  the off-domain coupling vanishes on ker G
    force="violating":   some kernel direction of G has nonzero image
    """
    if force == "violating" and (n is None or n < 2):
        n = int(rng.integers(2, 9))
    elif n is None:
        n = int(rng.integers(1, 9))
    if d is None:
        # a full-domain operator with PSD Gram is always extendible
        d = int(rng.integers(1, n)) if force == "violating" else int(rng.integers(0, n + 1))
    q = random_unitary(rng, n)
    dom, perp = q[:, :d], q[:, d:]
    if force == "violating":
        rank = int(rng.integers(0, d))  # strictly rank deficient
    else:
        rank = int(rng.integers(0, d + 1))
    g = random_psd(rng, d, rank=rank)
    lam, u = np.linalg.eigh(g)
    keep = lam > 1e-12 * max(float(lam[-1]), 1.0) if lam.size else lam > 0
    proj = u[:, keep] @ u[:, keep].conj().T if d else np.zeros((0, 0))
    z = rng.standard_normal((n - d, d)) + 1j * rng.standard_normal((n - d, d))
    if force == "extendible":
        z = z @ proj
    else:
        kernel = u[:, ~keep]
        if np.linalg.norm(z @ kernel) < 1e-3:
            z = z + random_vector(rng, n - d).reshape(-1, 1) @ kernel[:, :1].conj().T
    action = dom @ g + perp @ z
    basis = dom
    if not orthonormal_domain and d > 0:
        mix = np.eye(d) + 0.3 * (
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        ) / np.sqrt(d)
        basis = basis @ mix
        action = action @ mix
    return PartialOperator(basis, action)


def restricted_psd(rng, n: int, d: int) -> PartialOperator:
    """Restriction of an everywhere-defined PSD operator (always extendible)."""
    t = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
    basis = orthonormal_columns(rng, n, d)
    if d > 0:
        mix = np.eye(d) + 0.3 * (
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        ) / np.sqrt(d)
        basis = basis @ mix
    return PartialOperator(basis, t @ basis)


def skew_probe(eps: float):
    """(p, B, a_n, X): D = e1, Ad = 1e3 (1, 1), B = 3e3 I, the minimal
    extension a_n = Ad G^-1 Ad† = 1e3 [[1, 1], [1, 1]] in closed form, and
    X = a_n + eps [[0, 1], [-1, 0]], whose Hermitian part is exactly a_n.
    X passes the Hermitian rule at its own scale for eps up to about 7e-6,
    while X - a_n is all anti-Hermitian part."""
    p = PartialOperator(np.array([[1.0], [0.0]]), 1e3 * np.array([[1.0], [1.0]]))
    a_n = 1e3 * np.ones((2, 2))
    return p, 3e3 * np.eye(2), a_n, a_n + eps * np.array([[0.0, 1.0], [-1.0, 0.0]])


def dominating_bound(rng, a_n: np.ndarray, margin: float = 0.1) -> np.ndarray:
    n = a_n.shape[0]
    bump = random_psd(rng, n, rank=int(rng.integers(0, n + 1)))
    return a_n + bump + margin * np.eye(n)


def qform_oracle(p: PartialOperator, y, rng, samples: int = 10_000) -> float:
    """Brute-force maximum of |<A x, y>|^2 over the form ball <A x, x> <= 1.

    Feasible points are drawn uniformly from the boundary sphere in the
    spectral parametrization of the Gram; the analytic stationary point
    is added as one more candidate.  The objective is evaluated through
    the raw pairing, independent of the closed-form path.
    """
    g = p.gram()
    yv = np.asarray(y, dtype=np.complex128).reshape(-1)
    if p.d == 0:
        return 0.0
    lam, u = np.linalg.eigh(0.5 * (g + g.conj().T))
    keep = lam > 1e-12 * max(float(lam[-1]), 0.0) if lam.size else lam > 0
    lam_r, u_r = lam[keep], u[:, keep]
    r = lam_r.size
    if r == 0:
        return 0.0

    def objective(coeffs: np.ndarray) -> np.ndarray:
        images = p.action @ coeffs  # n x batch
        return np.abs(yv.conj() @ images) ** 2

    z = rng.standard_normal((r, samples)) + 1j * rng.standard_normal((r, samples))
    z /= np.linalg.norm(z, axis=0, keepdims=True)
    candidates = u_r @ (z / np.sqrt(lam_r)[:, None])
    best = float(np.max(objective(candidates)))
    # analytic stationary point, rescaled onto the boundary
    v = p.action.conj().T @ yv
    c0 = u_r @ ((u_r.conj().T @ v) / lam_r)
    q = float(np.real(c0.conj() @ g @ c0))
    if q > 0:
        best = max(best, float(objective((c0 / np.sqrt(q)).reshape(-1, 1))[0]))
    return best


def commuting_instance(rng, n: int, hermitian: bool = False):
    """(P, B, C) satisfying the intertwining hypotheses by construction.

    B is normal with repeated eigenvalues, C = B†, the reference positive
    operator commutes with both, and the domain is a random subspace of a
    union of eigenspaces (so it is invariant).  With ``hermitian`` the
    eigenvalues are real, so B = C is self-adjoint.
    """
    q = random_unitary(rng, n)
    sizes = []
    left = n
    while left > 0:
        s = int(rng.integers(1, left + 1))
        sizes.append(s)
        left -= s
    beta = np.concatenate(
        [
            np.full(
                s,
                rng.standard_normal()
                + (0.0 if hermitian else 1j * rng.standard_normal()),
            )
            for s in sizes
        ]
    )
    b = (q * beta) @ q.conj().T
    c = b.conj().T
    blocks = []
    offset = 0
    dom_cols = []
    for s in sizes:
        blocks.append(random_psd(rng, s, rank=int(rng.integers(0, s + 1))))
        t = int(rng.integers(0, s + 1))
        if t:
            dom_cols.append(q[:, offset : offset + s] @ orthonormal_columns(rng, s, t))
        offset += s
    h = np.zeros((n, n), dtype=np.complex128)
    offset = 0
    for s, blk in zip(sizes, blocks):
        h[offset : offset + s, offset : offset + s] = blk
        offset += s
    a_full = q @ h @ q.conj().T
    if dom_cols:
        basis = np.hstack(dom_cols)
    else:
        basis = q[:, :1]
    p = PartialOperator(basis, a_full @ basis)
    return p, b, c


def extensions_by_block(rng, p: PartialOperator, bound, count: int, tries: int = 60):
    """Random PSD extensions of p dominated by ``bound``, built independently.

    Rotates the domain to leading coordinates, keeps the prescribed
    column blocks, fills the free block with the shorted term plus PSD
    noise, and keeps candidates that are PSD and below the bound.  Uses
    numpy's pinv so the arithmetic is independent of the library's.
    """
    n, d = p.domain_basis.shape
    if d == 0:
        q1 = np.zeros((n, 0), dtype=np.complex128)
        q2 = np.eye(n, dtype=np.complex128)
        y1 = np.zeros((0, 0), dtype=np.complex128)
        y2 = np.zeros((n, 0), dtype=np.complex128)
    else:
        q1, rmat = np.linalg.qr(p.domain_basis)
        z = rng.standard_normal((n, n - d)) + 1j * rng.standard_normal((n, n - d))
        z = z - q1 @ (q1.conj().T @ z)
        q2 = np.linalg.qr(z)[0] if n > d else np.zeros((n, 0), dtype=np.complex128)
        y = p.action @ np.linalg.inv(rmat)
        y1 = q1.conj().T @ y
        y2 = q2.conj().T @ y
    q = np.hstack([q1, q2])
    x_min = y2 @ np.linalg.pinv(y1) @ y2.conj().T
    out = []
    bound = np.asarray(bound, dtype=np.complex128)
    for k in range(tries):
        if len(out) >= count:
            break
        s = rng.uniform(0.0, 0.5) * 0.5 ** (k // max(count, 1))
        x = x_min + s * random_psd(rng, n - d)
        blocks = np.zeros((n, n), dtype=np.complex128)
        blocks[:d, :d] = y1
        blocks[d:, :d] = y2
        blocks[:d, d:] = y2.conj().T
        blocks[d:, d:] = x
        m = q @ blocks @ q.conj().T
        m = 0.5 * (m + m.conj().T)
        w_m = np.linalg.eigvalsh(m)
        w_gap = np.linalg.eigvalsh(bound - m)
        scale = 1.0 + max(abs(float(w_m[0])), abs(float(w_m[-1])))
        if float(w_m[0]) >= -1e-11 * scale and float(w_gap[0]) >= -1e-11 * scale:
            out.append(m)
    return out


# ---------------------------------------------------------------------------
# *-algebras


def m2_algebra() -> StarAlgebra:
    """Full 2x2 matrix algebra in the matrix-unit basis E11, E12, E21, E22."""
    units = [(0, 0), (0, 1), (1, 0), (1, 1)]
    m = 4
    mult = np.zeros((m, m, m), dtype=np.complex128)
    for i, (a, b) in enumerate(units):
        for j, (c, d) in enumerate(units):
            if b == c:
                mult[i, j, units.index((a, d))] = 1.0
    invol = np.zeros((m, m), dtype=np.complex128)
    for i, (a, b) in enumerate(units):
        invol[i, units.index((b, a))] = 1.0
    unit = np.zeros(m, dtype=np.complex128)
    unit[0] = unit[3] = 1.0
    return StarAlgebra(mult=mult, invol=invol, unit=unit)


def m2_first_column_ideal() -> LeftIdeal:
    basis = np.zeros((4, 2), dtype=np.complex128)
    basis[0, 0] = 1.0  # E11
    basis[2, 1] = 1.0  # E21
    return LeftIdeal(basis)


def delta_algebra(k: int) -> StarAlgebra:
    """Functions on k points: pointwise product, entrywise conjugation."""
    mult = np.zeros((k, k, k), dtype=np.complex128)
    for i in range(k):
        mult[i, i, i] = 1.0
    return StarAlgebra(
        mult=mult,
        invol=np.eye(k, dtype=np.complex128),
        unit=np.ones(k, dtype=np.complex128),
    )


def rotated_commutative(rng, k: int):
    """Function algebra on k points in a random unitary basis.

    Returns (algebra, to_rotated, data) where ``to_rotated`` maps a
    vector of point values of a functional to its coefficient vector in
    the rotated basis, and ``data['transform']`` maps point coordinates
    of elements to rotated coordinates.
    """
    t = random_unitary(rng, k)
    t_inv = t.conj().T
    mult = np.zeros((k, k, k), dtype=np.complex128)
    eye = np.eye(k)
    for i in range(k):
        for j in range(k):
            mult[i, j] = t_inv @ ((t @ eye[:, i]) * (t @ eye[:, j]))
    invol = (t_inv @ np.conj(t)).T
    unit = t_inv @ np.ones(k)
    algebra = StarAlgebra(mult=mult, invol=invol, unit=unit)

    def to_rotated(point_values: np.ndarray) -> np.ndarray:
        return t.T @ np.asarray(point_values, dtype=np.complex128)

    return algebra, to_rotated, {"transform": t}


def rotated_ideal(transform: np.ndarray, support: list[int]) -> LeftIdeal:
    t_inv = transform.conj().T
    eye = np.eye(transform.shape[0])
    cols = [t_inv @ eye[:, s] for s in support]
    basis = np.array(cols).T if cols else np.zeros((transform.shape[0], 0))
    return LeftIdeal(basis)


def nilpotent_algebra() -> StarAlgebra:
    """C[t]/t^3 with t* = t: unital, every nonzero positive functional on
    the ideal (t, t^2) is admissible yet fails Hilbert boundedness."""
    m = 3
    mult = np.zeros((m, m, m), dtype=np.complex128)
    for i in range(m):
        for j in range(m):
            if i + j < m:
                mult[i, j, i + j] = 1.0
    unit = np.zeros(m, dtype=np.complex128)
    unit[0] = 1.0
    return StarAlgebra(mult=mult, invol=np.eye(m, dtype=np.complex128), unit=unit)


def fn_sup_oracle(algebra, ideal, f_values, x, rng, samples: int = 10_000) -> float:
    """Brute-force sup of |f(x* a)|^2 over the ball f(a* a) <= 1.

    Ideal elements are drawn on the boundary sphere in the spectral
    parametrization of the form; values are evaluated through the raw
    algebra operations, independent of the GNS path.
    """
    w = np.asarray(f_values, dtype=np.complex128).reshape(-1)
    p = ideal.p
    if p == 0:
        return 0.0
    g = np.zeros((p, p), dtype=np.complex128)
    for i in range(p):
        star_i = algebra.star(ideal.basis[:, i])
        for j in range(p):
            prod = algebra.multiply(star_i, ideal.basis[:, j])
            coeffs = np.linalg.lstsq(ideal.basis, prod.reshape(-1, 1), rcond=None)[0]
            g[i, j] = np.dot(coeffs.reshape(-1), w)
    g = 0.5 * (g + g.conj().T)
    lam, u = np.linalg.eigh(g)
    keep = lam > 1e-12 * max(float(lam[-1]), 0.0) if lam.size else lam > 0
    lam_r, u_r = lam[keep], u[:, keep]
    if lam_r.size == 0:
        return 0.0
    x_star = algebra.star(np.asarray(x, dtype=np.complex128).reshape(-1))

    def values(coeffs: np.ndarray) -> np.ndarray:
        """|f(x* a)|^2 for a batch of ideal coefficient columns."""
        elems = ideal.basis @ coeffs
        prods = np.einsum("i,js,ijk->ks", x_star, elems, algebra.mult)
        c = np.linalg.lstsq(ideal.basis, prods, rcond=None)[0]
        return np.abs(w @ c) ** 2

    z = rng.standard_normal((lam_r.size, samples)) + 1j * rng.standard_normal(
        (lam_r.size, samples)
    )
    z /= np.linalg.norm(z, axis=0, keepdims=True)
    best = float(np.max(values(u_r @ (z / np.sqrt(lam_r)[:, None]))))
    # analytic stationary point of the constrained maximization
    lmat = np.zeros((p, p), dtype=np.complex128)
    for l in range(p):
        prod = algebra.multiply(x_star, ideal.basis[:, l])
        lmat[:, l] = np.linalg.lstsq(ideal.basis, prod.reshape(-1, 1), rcond=None)[
            0
        ].reshape(-1)
    v = np.conj(lmat.T @ w)
    c0 = u_r @ ((u_r.conj().T @ v) / lam_r)
    q = float(np.real(c0.conj() @ g @ c0))
    if q > 0:
        best = max(best, float(values((c0 / np.sqrt(q)).reshape(-1, 1))[0]))
    return best
