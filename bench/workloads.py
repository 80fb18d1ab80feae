"""Seeded problem generators, program calls and output oracles.

A workload is a fixed cycle of request specs; a spec names a request kind
and the size and class of its problem.  Every request gets fresh random
data from ``numpy.random.default_rng([seed, index])``, so one seed gives
the same inputs byte for byte.  Each problem is built so that its verdict
and an extension of known form hold by construction (the restriction of
a known PSD operator T, a closed-form GNS extension, ...).  The checks
compare the program's output against those facts with plain numpy; they
never call kvnext.

Module attributes of kvnext are looked up at call time (``kx.cli.main``,
``kx.krein_von_neumann``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

# kvnext's default cmp_tol; the oracle's residual and Loewner-order tolerance.
CMP_TOL = 1e-8


@dataclass(frozen=True)
class Spec:
    kind: str  # request kind, e.g. "a_max" or "cli:extend"
    n: int  # operator dimension (m, the algebra dimension, for algebra-gns)
    variant: str  # problem class the generator builds in


@dataclass
class Request:
    spec: Spec
    data: dict  # what the program receives
    oracle: dict  # what the generator built in; never shown to the program
    text: bytes = b""  # the problem file, for CLI requests


# ---------------------------------------------------------------------------
# random building blocks


def _cgauss(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _orthonormal(rng, n, d):
    return np.linalg.qr(_cgauss(rng, n, d))[0]


def _psd(rng, n, rank):
    b = _cgauss(rng, n, rank)
    return b @ b.conj().T / rank


def _mix(rng, d):
    """Well-conditioned change of domain basis, so D is not orthonormal."""
    return np.eye(d) + 0.3 * _cgauss(rng, d, d) / math.sqrt(2 * d)


def _known_psd(rng, n, variant):
    """T, PSD; full rank, or of rank n/4 so that G = D† T D is rank deficient."""
    if variant == "full":
        return _psd(rng, n, n) + 0.1 * np.eye(n)
    return _psd(rng, n, max(n // 4, 1))


def _restriction(rng, n, variant):
    """(T, D, Ad): the restriction of T to a random domain of dimension n/2."""
    d = n // 2
    t = _known_psd(rng, n, variant)
    basis = _orthonormal(rng, n, d) @ _mix(rng, d)
    return t, basis, t @ basis


def _violating(rng, n):
    """(D, Ad) with rank-deficient G and Ad nonzero on ker G: not extendible."""
    d = n // 2
    q = np.linalg.qr(_cgauss(rng, n, n))[0]
    g = _psd(rng, d, max(d // 2, 1))
    z = _cgauss(rng, n - d, d)
    mix = _mix(rng, d)
    return q[:, :d] @ mix, (q[:, :d] @ g + q[:, d:] @ z) @ mix


def _bound(rng, t):
    """B = T + P + I/2 with P PSD: dominates T with room to spare."""
    n = t.shape[0]
    return t + _psd(rng, n, max(n // 4, 1)) + 0.5 * np.eye(n)


def _halmos(rng, n, variant):
    d = n // 2
    if variant == "violating":
        a11 = _psd(rng, d, max(d // 2, 1))
        return a11, _cgauss(rng, n - d, d)
    a11 = _known_psd(rng, d, variant)
    return a11, _cgauss(rng, n - d, d) @ a11 / math.sqrt(d)


def _commuting(rng, n, variant):
    """(T, D, Ad, B, C): B normal with up to 8 eigenspaces of even size,
    C = B†, T commutes with B, and D spans half of every eigenspace, so B
    and C leave the domain invariant and C† A = A B, B† A = A C hold
    exactly.  n must be a multiple of 4 and of the block count."""
    blocks = min(8, n // 4)
    size = n // blocks
    q = np.linalg.qr(_cgauss(rng, n, n))[0]
    beta = np.repeat(_cgauss(rng, blocks), size)
    t = np.zeros((n, n), dtype=np.complex128)
    cols = []
    for i in range(blocks):
        qi = q[:, i * size : (i + 1) * size]
        t += qi @ _known_psd(rng, size, variant) @ qi.conj().T
        cols.append(qi @ _orthonormal(rng, size, size // 2))
    basis = np.hstack(cols) @ _mix(rng, n // 2)
    b = (q * beta) @ q.conj().T
    t = 0.5 * (t + t.conj().T)
    return t, basis, t @ basis, b, b.conj().T


# ---------------------------------------------------------------------------
# oracle helpers


def _herm(m):
    return 0.5 * (m + m.conj().T)


def _psd_ok(m):
    """PSD within CMP_TOL relative to its Frobenius norm (shifted Cholesky)."""
    h = _herm(np.asarray(m))
    if h.size == 0:
        return True
    shift = CMP_TOL * (1.0 + np.linalg.norm(h))
    try:
        np.linalg.cholesky(h + shift * np.eye(h.shape[0]))
    except np.linalg.LinAlgError:
        return False
    return True


def _extends(x, basis, action):
    """x acts as the partial operator on its domain, and is Hermitian."""
    resid = np.linalg.norm(x @ basis - action)
    herm = np.linalg.norm(x - x.conj().T)
    scale = CMP_TOL * (1.0 + np.linalg.norm(action))
    return resid <= scale and herm <= CMP_TOL * (1.0 + np.linalg.norm(x))


def _close(x, y, tol=CMP_TOL):
    x = np.asarray(x)
    y = np.asarray(y)
    return x.shape == y.shape and np.linalg.norm(x - y) <= tol * (
        1.0 + np.linalg.norm(y)
    )


def _fails(*pairs):
    """First failed (ok, message) pair's message, or None."""
    for ok, message in pairs:
        if not ok:
            return message
    return None


def _check_minimal(x, o, name):
    return _fails(
        (_extends(x, o["D"], o["Ad"]), f"{name} does not extend the data"),
        (_psd_ok(x), f"{name} is not PSD"),
        (_psd_ok(o["T"] - x), f"{name} is not below the known extension T"),
    )


# ---------------------------------------------------------------------------
# op-dense: the library API on dense random partial operators


def _op_make(rng, spec):
    n, v = spec.n, spec.variant
    if spec.kind == "halmos_complete":
        a11, a21 = _halmos(rng, n, v)
        return {"a11": a11, "a21": a21}, {"completable": v != "violating"}
    if spec.kind == "verify_commutation":
        t, basis, action, b, c = _commuting(rng, n, v)
        return {"D": basis, "Ad": action, "B": b, "C": c}, {}
    if v == "violating":
        basis, action = _violating(rng, n)
        return {"D": basis, "Ad": action}, {"extendible": False}
    t, basis, action = _restriction(rng, n, v)
    oracle = {
        "T": t,
        "D": basis,
        "Ad": action,
        "extendible": True,
        "rank": n // 2 if v == "full" else max(n // 4, 1),
    }
    data = {"D": basis, "Ad": action}
    if spec.kind in ("a_max", "in_interval"):
        data["B"] = oracle["B"] = _bound(rng, t)
    if spec.kind == "in_interval":
        # T is an extension below B.  T + u u†/4 is PSD and below B but
        # changes the action on the domain, so it lies outside [a_n, a_max].
        inside = v == "full"
        u = _cgauss(rng, n)
        u /= np.linalg.norm(u)
        data["X"] = t if inside else t + 0.25 * np.outer(u, u.conj())
        oracle["inside"] = inside
    return data, oracle


def _op_call(kx, req):
    kind, d = req.spec.kind, req.data
    if kind == "halmos_complete":
        return kx.halmos_complete(d["a11"], d["a21"])
    p = kx.PartialOperator(d["D"], d["Ad"])
    if kind == "is_extendible":
        return kx.is_extendible(p)
    if kind == "krein_von_neumann":
        return kx.krein_von_neumann(p)
    if kind == "a_max":
        return kx.a_max(p, d["B"])
    if kind == "in_interval":
        return kx.in_interval(p, d["B"], d["X"])
    if kind == "verify_commutation":
        return kx.verify_commutation(p, d["B"], d["C"])
    if kind == "extend_kernel":
        n = req.spec.n
        return kx.extend_kernel(kx.KernelProblem(m=4, n=n // 4, sub=p))
    raise ValueError(f"unknown op-dense kind {kind!r}")


def _op_check(req, out):
    kind, o, d = req.spec.kind, req.oracle, req.data
    if kind == "is_extendible":
        if out.extendible != o["extendible"]:
            return f"verdict {out.extendible}, built {o['extendible']}"
        if not o["extendible"]:
            w = out.witness
            return _fails(
                (math.isinf(out.hilbert_bound), "finite bound on a violating problem"),
                (w is not None and abs(np.linalg.norm(w) - 1.0) < 1e-8, "no unit witness"),
            )
        g = d["D"].conj().T @ d["Ad"]
        probes = _cgauss(np.random.default_rng(0), d["D"].shape[1], 3)
        lhs = np.sum(np.abs(d["Ad"] @ probes) ** 2, axis=0)
        form = np.real(np.sum(probes.conj() * (g @ probes), axis=0))
        return _fails(
            (out.witness is None, "witness on an extendible problem"),
            (
                np.all(lhs <= out.hilbert_bound * form * (1 + 1e-6) + 1e-12),
                "Hilbert bound below ||Ad c||^2 / <G c, c>",
            ),
        )
    if kind == "krein_von_neumann":
        return _fails(
            (out.factorization.r == o["rank"], f"rank {out.factorization.r}, built {o['rank']}"),
            (math.isfinite(out.norm) and out.norm > 0.0, "norm not positive"),
        ) or _check_minimal(out.a_n, o, "a_n")
    if kind == "a_max":
        return _fails(
            (_extends(out.a_n, o["D"], o["Ad"]), "a_n does not extend the data"),
            (_extends(out.a_max, o["D"], o["Ad"]), "a_max does not extend the data"),
            (_psd_ok(out.a_max - out.a_n), "a_n is not below a_max"),
            (_psd_ok(o["B"] - out.a_max), "a_max is not below B"),
            (_psd_ok(out.a_max - o["T"]), "a_max is not above the known extension T"),
            (not out.degenerate, "interval reported degenerate"),
        )
    if kind == "in_interval":
        return None if out == o["inside"] else f"membership {out}, built {o['inside']}"
    if kind == "halmos_complete":
        want = o["completable"]
        flags = (out.completable, out.bounded, out.range_condition)
        if flags != (want, want, want):
            return f"criteria {flags}, built {want}"
        if not want:
            return _fails(
                (out.completion is None, "completion on an infeasible problem"),
                (math.isinf(out.bound_constant), "finite bound constant"),
            )
        k = d["a11"].shape[0]
        return _fails(
            (_close(out.completion[:k, :k], d["a11"]), "completion changes A11"),
            (_close(out.completion[k:, :k], d["a21"]), "completion changes A21"),
            (_psd_ok(out.completion), "completion is not PSD"),
            (math.isfinite(out.bound_constant), "infinite bound constant"),
        )
    if kind == "verify_commutation":
        return _fails(
            (out.hypotheses_hold, "hypotheses reported false"),
            (out.conclusion_holds, "intertwining fails for a_n"),
        )
    if kind == "extend_kernel":
        m, f = out.blocks.shape[0], out.blocks.shape[2]
        # block row t, block column s holds K(s, t)
        assembled = out.blocks.transpose(1, 2, 0, 3).reshape(m * f, m * f)
        return _check_minimal(assembled, o, "kernel operator")
    raise ValueError(f"unknown op-dense kind {kind!r}")


_OP_VARIANTS = {
    "is_extendible": ("full", "deficient", "violating"),
    "krein_von_neumann": ("full", "deficient"),
    "a_max": ("full", "deficient"),
    "in_interval": ("full", "deficient"),  # inside / outside the interval
    "halmos_complete": ("full", "deficient", "violating"),
    "verify_commutation": ("full", "deficient"),
    "extend_kernel": ("full", "deficient"),
}


def _op_cycle(weights, largest):
    """Every kind and variant at each size of ``weights``, repeated; at the
    largest size each kind once, with its variant taken in turn, so the
    slowest requests stay few and a run holds enough requests."""
    cycle = [
        Spec(kind, n, variant)
        for n, reps in weights
        for _ in range(reps)
        for kind, variants in _OP_VARIANTS.items()
        for variant in variants
    ]
    for i, (kind, variants) in enumerate(_OP_VARIANTS.items()):
        cycle.append(Spec(kind, largest, variants[i % len(variants)]))
    return cycle


# ---------------------------------------------------------------------------
# problem files for the CLI workloads


def _c(m):
    """Complex array -> nested [re, im] pairs, as the CLI reads them."""
    a = np.asarray(m)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _from_c(obj):
    a = np.asarray(obj, dtype=np.float64)
    return a[..., 0] + 1j * a[..., 1]


def _envelope(kind, payload, seed=0):
    body = {"schema_version": "1", "kind": kind, "payload": payload, "seed": seed}
    return json.dumps(body, sort_keys=True).encode()


def _po(basis, action):
    return {"dim": basis.shape[0], "domain_basis": _c(basis), "action": _c(action)}


# ---------------------------------------------------------------------------
# cli-small: `kvn <command>` on small problems


def _cli_make(rng, spec):
    cmd = spec.kind.split(":", 1)[1]
    n, v = spec.n, spec.variant
    o = {"status": "not_extendible" if v == "violating" else "ok"}
    if cmd == "complete":
        a11, a21 = _halmos(rng, n, v)
        o.update(a11=a11, a21=a21)
        return _envelope("halmos_block", {"a11": _c(a11), "a21": _c(a21)}), o
    if cmd == "commutation":
        t, basis, action, b, c = _commuting(rng, n, v)
        payload = {"partial_operator": _po(basis, action), "b": _c(b), "c": _c(c)}
        return _envelope("commutation_problem", payload), o
    if cmd == "schwarz":
        k = int(v.split("=")[1])
        ops = [_psd(rng, n, int(rng.integers(1, n + 1))) for _ in range(k)]
        vecs = [_cgauss(rng, n) for _ in range(k)]
        o["constant"] = float(np.linalg.eigvalsh(_herm(sum(ops)))[-1])
        payload = {"operators": [_c(a) for a in ops], "vectors": [_c(x) for x in vecs]}
        return _envelope("schwarz_problem", payload), o
    if v == "violating":
        basis, action = _violating(rng, n)
    else:
        t, basis, action = _restriction(rng, n, "full" if v == "bounded" else v)
        o.update(T=t, D=basis, Ad=action)
    if cmd == "kernel":
        payload = dict(_po(basis, action), set_size=2, fiber_dim=n // 2)
        del payload["dim"]
        return _envelope("kernel_problem", payload), o
    if v == "bounded":
        o["B"] = _bound(rng, t)
        o["samples"] = 3
        payload = {"partial_operator": _po(basis, action), "bound": _c(o["B"]), "sample_count": 3}
        return _envelope("bounded_extension", payload, seed=int(rng.integers(1 << 30))), o
    return _envelope("partial_operator", _po(basis, action)), o


def _status_fails(o, code, report):
    """The exit code and the report's status against the built-in verdict."""
    want_code = 0 if o["status"] == "ok" else 2
    return _fails(
        (code == want_code, f"exit code {code}, expected {want_code}"),
        (report.get("status") == o["status"], f"status {report.get('status')!r}, expected {o['status']!r}"),
    )


def _cli_check(req, code, report):
    o = req.oracle
    cmd = req.spec.kind.split(":", 1)[1]
    fail = _status_fails(o, code, report)
    if fail or o["status"] != "ok":
        return fail or _fails(("witness" in report["result"], "no witness"))
    res = report["result"]
    if cmd == "check":
        return _fails((res["extendible"] is True, "not extendible"))
    if cmd == "extend":
        a_n = _from_c(res["a_n"])
        fail = _check_minimal(a_n, o, "a_n")
        if fail or "B" not in o:
            return fail
        top = _from_c(res["a_max"])
        return _fails(
            (_extends(top, o["D"], o["Ad"]), "a_max does not extend the data"),
            (_psd_ok(top - a_n), "a_n is not below a_max"),
            (_psd_ok(o["B"] - top), "a_max is not below B"),
            (len(res["samples"]) == o["samples"], "wrong sample count"),
            (all(_extends(_from_c(s), o["D"], o["Ad"]) for s in res["samples"]), "a sample does not extend the data"),
        )
    if cmd == "complete":
        k = o["a11"].shape[0]
        done = _from_c(res["completion"])
        return _fails(
            (res["completable"] and res["bounded"] and res["range_condition"], "criteria disagree"),
            (_close(done[:k, :k], o["a11"]) and _close(done[k:, :k], o["a21"]), "completion changes the data"),
            (_psd_ok(done), "completion is not PSD"),
        )
    if cmd == "kernel":
        return _fails((res["positive_definite"], "kernel not positive definite")) or _check_minimal(
            _from_c(res["assembled"]), o, "kernel operator"
        )
    if cmd == "commutation":
        return _fails((res["hypotheses_hold"] and res["conclusion_holds"], "intertwining fails"))
    if cmd == "schwarz":
        c = o["constant"]
        return _fails(
            (res["holds"], "inequality reported false"),
            (abs(res["constant"] - c) <= CMP_TOL * (1 + c), "constant is not ||sum A_j||"),
            (res["minimal_constant_estimate"] <= c * (1 + CMP_TOL), "estimate above the constant"),
        )
    raise ValueError(f"unknown cli command {cmd!r}")


_CLI_VARIANTS = {
    "check": ("full", "deficient", "violating"),
    "extend": ("full", "deficient", "violating", "bounded"),
    "complete": ("full", "violating"),
    "kernel": ("full", "deficient"),
    "commutation": ("deficient",),
    "schwarz": ("k=1", "k=3", "k=10"),
}


def _cli_cycle(sizes):
    return [
        Spec(f"cli:{cmd}", n, variant)
        for n in sizes
        for cmd, variants in _CLI_VARIANTS.items()
        for variant in variants
    ]


# ---------------------------------------------------------------------------
# algebra-gns: `kvn functional` on small *-algebras


def _matrix_algebra(k):
    """M_k in the matrix-unit basis E_ab (index a*k + b), with its unit."""
    m = k * k
    mult = np.zeros((m, m, m), dtype=np.complex128)
    invol = np.zeros((m, m), dtype=np.complex128)
    for a in range(k):
        for b in range(k):
            invol[a * k + b, b * k + a] = 1.0
            for c in range(k):
                mult[a * k + b, b * k + c, a * k + c] = 1.0
    return mult, invol, np.eye(k).reshape(-1).astype(np.complex128)


def _state_coeffs(rho):
    """Coefficients of x -> tr(rho x) on the basis E_ab: rho_ba."""
    return rho.T.reshape(-1)


def _gns_matrix(rng, k, bounded):
    """First-column ideal of M_k and f = tr(rho .) on it.  Its minimal
    extension is the vector state of rho e_0:  rho_N = rho e0 e0† rho / rho_00;
    with g = tr((rho + sigma) .) the maximal one is rho + sigma - sigma_N."""
    mult, invol, unit = _matrix_algebra(k)
    rho = _psd(rng, k, k)
    ideal = np.zeros((k * k, k), dtype=np.complex128)
    ideal[np.arange(k) * k, np.arange(k)] = 1.0
    w = ideal.T @ _state_coeffs(rho)
    o = {"f_n": _state_coeffs(np.outer(rho[:, 0], rho[0, :]) / rho[0, 0].real)}
    g = None
    if bounded:
        sigma = _psd(rng, k, k)
        g = _state_coeffs(rho + sigma)
        sigma_n = np.outer(sigma[:, 0], sigma[0, :]) / sigma[0, 0].real
        o["f_max"] = _state_coeffs(rho + sigma - sigma_n)
    return mult, invol, unit, ideal, w, g, o


def _gns_points(rng, k, bounded):
    """Functions on k points in a random unitary basis (coefficients c have
    point values U c).  The ideal is the functions supported on k/2 of the
    points and f is a positive measure mu there.  Then f_N = mu, and below
    a measure nu >= mu, f_max = mu on the support and nu off it."""
    u = np.linalg.qr(_cgauss(rng, k, k))[0]
    u_inv = u.conj().T
    eye = np.eye(k)
    mult = np.einsum("ai,aj,ka->ijk", u, u, u_inv)
    invol = (u_inv @ np.conj(u)).T
    unit = u_inv @ np.ones(k)
    support = np.sort(rng.choice(k, size=k // 2, replace=False))
    ideal = u_inv @ eye[:, support]
    mu = rng.uniform(0.5, 2.0, k) * np.isin(np.arange(k), support)
    o = {"f_n": u.T @ mu}
    g = None
    if bounded:
        nu = mu + rng.uniform(0.5, 2.0, k)
        g = u.T @ nu
        o["f_max"] = u.T @ np.where(mu > 0, mu, nu)
    return mult, invol, unit.astype(np.complex128), ideal, mu[support].astype(np.complex128), g, o


def _gns_nilpotent(rng, bounded):
    """C[t]/t^3, t* = t, ideal (t, t^2): any f with f(t^2) > 0 is positive
    and admissible but not Hilbert bounded, so no extension exists."""
    m = 3
    mult = np.zeros((m, m, m), dtype=np.complex128)
    for i in range(m):
        for j in range(m - i):
            mult[i, j, i + j] = 1.0
    ideal = np.eye(m, dtype=np.complex128)[:, 1:]
    w = np.array([rng.standard_normal(), rng.uniform(0.5, 2.0)], dtype=np.complex128)
    g = np.array([4.0, 0.0, 1.0], dtype=np.complex128) if bounded else None
    return mult, np.eye(m, dtype=np.complex128), np.eye(m)[0].astype(np.complex128), ideal, w, g, {}


def _gns_make(rng, spec):
    family, _, bound = spec.variant.partition("+")
    bounded = bound == "bound"
    if family == "matrix":
        parts = _gns_matrix(rng, int(round(math.sqrt(spec.n))), bounded)
    elif family == "points":
        parts = _gns_points(rng, spec.n, bounded)
    else:
        parts = _gns_nilpotent(rng, bounded)
    mult, invol, unit, ideal, w, g, o = parts
    o.update(status="ok" if family != "nilpotent" else "not_extendible",
             mult=mult, invol=invol, ideal=ideal, w=w, g=g)
    payload = {
        "dim": mult.shape[0],
        "mult": [[_c(mult[i, j]) for j in range(mult.shape[1])] for i in range(mult.shape[0])],
        "invol": _c(invol),
        "unit": _c(unit),
        "ideal_basis": _c(ideal),
        "functional": _c(w),
    }
    if g is not None:
        payload["bound_functional"] = _c(g)
    return _envelope("star_algebra_problem", payload), o


def _form(o, h):
    """(h(b_i* b_j))_ij: the form matrix that orders functionals."""
    return np.einsum("ia,ajk,k->ij", o["invol"], o["mult"], h)


def _gns_check(req, code, report):
    o = req.oracle
    fail = _status_fails(o, code, report)
    if fail or o["status"] != "ok":
        return fail
    res = report["result"]
    f_n = _from_c(res["f_n"])
    fail = _fails(
        (_close(o["ideal"].T @ f_n, o["w"]), "f_N differs from f on the ideal"),
        (_close(f_n, o["f_n"]), "f_N differs from its closed form"),
        (_close(_from_c(res["f_n_unital"]), o["f_n"]), "unital f_N differs from its closed form"),
    )
    if fail or o["g"] is None:
        return fail
    top = _from_c(res["f_max"])
    return _fails(
        (_close(top, o["f_max"]), "f_max differs from its closed form"),
        (_psd_ok(_form(o, top - f_n)), "f_N is not below f_max"),
        (_psd_ok(_form(o, o["g"] - top)), "f_max is not below g"),
    )


def _gns_cycle(mix):
    return [Spec("cli:functional", m, variant) for m, variant, reps in mix for _ in range(reps)]


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple  # one cycle of specs; every run measures whole cycles

    def make(self, seed, index, spec):
        """Request ``index`` of a run with ``seed``; same arguments, same bytes.
        Kinds named ``cli:<command>`` go through kvnext.cli.main on a file."""
        rng = np.random.default_rng([seed, index])
        if not spec.kind.startswith("cli:"):
            data, oracle = _op_make(rng, spec)
            return Request(spec, data, oracle)
        maker = _gns_make if spec.kind == "cli:functional" else _cli_make
        text, oracle = maker(rng, spec)
        return Request(spec, {}, oracle, text)

    def order(self, seed, cycle_no):
        """The cycle's specs in the order this cycle sends them."""
        perm = np.random.default_rng([seed, cycle_no, 1 << 20]).permutation(len(self.cycle))
        return [self.cycle[i] for i in perm]

    def warmup_specs(self):
        """One spec of each kind and variant, on its smallest size."""
        seen = {}
        for s in self.cycle:
            key = (s.kind, s.variant)
            if key not in seen or s.n < seen[key].n:
                seen[key] = s
        return list(seen.values())


def digest(req):
    """Hash of everything the program receives for a request."""
    h = hashlib.sha256(repr(req.spec).encode())
    h.update(req.text)
    for key in sorted(req.data):
        h.update(key.encode())
        h.update(np.ascontiguousarray(req.data[key]).tobytes())
    return h.hexdigest()


class Caller:
    """Sends requests to kvnext and checks the outputs.  CLI requests go
    through ``kvnext.cli.main`` on files in ``workdir``."""

    def __init__(self, kx, workdir):
        self.kx = kx
        self.src = os.path.join(workdir, "problem.json")
        self.out = os.path.join(workdir, "report.json")

    def prepare(self, req):
        """Untimed: write the problem file of a CLI request."""
        if req.text:
            with open(self.src, "wb") as fh:
                fh.write(req.text)

    def call(self, req):
        """The timed request.  Raises only if the program raised."""
        if not req.text:
            return _op_call(self.kx, req)
        cmd = req.spec.kind.split(":", 1)[1]
        return self.kx.cli.main([cmd, self.src, "--out", self.out])

    def check(self, req, out):
        """Untimed: None when the output is correct, else the reason."""
        if not req.text:
            return _op_check(req, out)
        with open(self.out, "rb") as fh:
            report = json.load(fh)
        if req.spec.kind == "cli:functional":
            return _gns_check(req, out, report)
        return _cli_check(req, out, report)


WORKLOADS = {
    "op-dense": Workload("op-dense", tuple(_op_cycle([(128, 4), (256, 2)], largest=512))),
    "cli-small": Workload("cli-small", tuple(_cli_cycle([4, 8, 16, 24, 32, 48]) * 3)),
    # p50 falls among the bounded M_2 and 4-point requests and p90 among
    # the bounded 5-point ones, not in a gap between two sizes.
    "algebra-gns": Workload(
        "algebra-gns",
        tuple(
            _gns_cycle(
                [
                    (3, "nilpotent", 5), (3, "nilpotent+bound", 5),
                    (4, "matrix", 16), (4, "matrix+bound", 19),
                    (4, "points", 14), (4, "points+bound", 16),
                    (5, "points", 4), (5, "points+bound", 10),
                    (6, "points", 3), (6, "points+bound", 2),
                    (7, "points", 1), (7, "points+bound", 1),
                    (8, "points", 1), (9, "points", 1),
                    (9, "matrix", 1), (9, "matrix+bound", 1),
                ]
            )
        ),
    ),
}
