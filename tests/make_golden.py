"""Regenerate the CLI fixture corpus and its golden reports.

Run from the repository root:  python tests/make_golden.py

Fixtures encode the worked examples whose expected values are asserted
independently in the module tests; goldens freeze the byte-exact CLI
reports for the determinism and round-trip checks.
"""

from __future__ import annotations

import json
import pathlib
import sys

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden"


def c(re, im=0.0):
    return [float(re), float(im)]


def rvec(*values):
    return [c(v) for v in values]


def rmat(rows):
    return [[c(v) for v in row] for row in rows]


def cmat(m):
    return [[c(v.real, v.imag) for v in row] for row in m]


def restriction(n, d):
    """(T, D, T D) on C^n: T = M M† positive, D with d columns.  The entries
    are small Gaussian integers, so every product is exact."""
    i, j = np.indices((n, n))
    m = ((3 * i + 2 * j) % 5 - 2) + 1j * ((i * j + 1) % 3 - 1)
    t = m @ m.conj().T
    basis = np.eye(n, d) + 1j * ((i + 2 * j) % 4 == 0)[:, :d]
    return t, basis, t @ basis


# reports above the CLI's cutoff for rendering each distinct magnitude once
T12, D12, AD12 = restriction(12, 6)
T16, D16, AD16 = restriction(16, 6)


def matrix_units(k):
    """M_k in the matrix-unit basis E_ab (index a k + b): structure tensor,
    involution, unit and the first-column ideal span{E_a0}."""
    m = k * k
    mult = np.zeros((m, m, m))
    for a, b, d in np.ndindex(k, k, k):
        mult[a * k + b, b * k + d, a * k + d] = 1.0
    invol = np.eye(m)[[b * k + a for a, b in np.ndindex(k, k)]]
    ideal = np.eye(m)[:, ::k]
    return [rmat(t) for t in mult], rmat(invol), rvec(*np.eye(k).ravel()), rmat(ideal)


M2_MULT, M2_INVOL, M2_UNIT, M2_IDEAL = matrix_units(2)
M3_MULT, M3_INVOL, M3_UNIT, M3_IDEAL = matrix_units(3)
# trace states tr(RHO x) and tr((RHO + SIGMA) x) of positive definite
# Gaussian-integer densities: f is the first on the ideal, g the second
RHO = np.array([[2, 1 - 1j, 0], [1 + 1j, 3, 1j], [0, -1j, 2]])
SIGMA = np.array([[1, 0, 1j], [0, 1, 0], [-1j, 0, 2]])

RUN2 = {
    "dim": 2,
    "domain_basis": rmat([[1], [0]]),
    "action": rmat([[1], [1]]),
}

FIXTURE_SPECS = {
    "check_halmos": (
        "check",
        2,
        {
            "kind": "partial_operator",
            "payload": {
                "dim": 2,
                "domain_basis": rmat([[1], [0]]),
                "action": rmat([[0], [1]]),
            },
        },
    ),
    "check_empty_domain": (
        "check",
        0,
        {
            "kind": "partial_operator",
            "payload": {"dim": 3, "domain_basis": [[], [], []], "action": [[], [], []]},
        },
    ),
    "check_running2": (
        "check",
        0,
        {"kind": "partial_operator", "payload": dict(RUN2)},
    ),
    "check_invalid_gram": (
        "check",
        1,
        {
            "kind": "partial_operator",
            "payload": {
                "dim": 2,
                "domain_basis": rmat([[1], [0]]),
                "action": [[c(0, 1)], [c(0)]],
            },
        },
    ),
    "extend_running2": (
        "extend",
        0,
        {"kind": "partial_operator", "payload": dict(RUN2)},
    ),
    "extend_identity": (
        "extend",
        0,
        {
            "kind": "partial_operator",
            "payload": {
                "dim": 2,
                "domain_basis": rmat([[1, 0], [0, 1]]),
                "action": rmat([[1, 0], [0, 1]]),
            },
        },
    ),
    "extend_bounded_3i": (
        "extend",
        0,
        {
            "kind": "bounded_extension",
            "seed": 11,
            "payload": {
                "partial_operator": dict(RUN2),
                "bound": rmat([[3, 0], [0, 3]]),
                "sample_count": 2,
            },
        },
    ),
    "extend_bounded_degenerate": (
        "extend",
        0,
        {
            "kind": "bounded_extension",
            "payload": {
                "partial_operator": dict(RUN2),
                "bound": rmat([[1, 1], [1, 1]]),
            },
        },
    ),
    "extend_bound_too_small": (
        "extend",
        2,
        {
            "kind": "bounded_extension",
            "payload": {
                "partial_operator": dict(RUN2),
                "bound": rmat([[1, 0], [0, 1]]),
            },
        },
    ),
    "extend_bounded_n12": (
        "extend",
        0,
        {
            "kind": "bounded_extension",
            "seed": 5,
            "payload": {
                "partial_operator": {"dim": 12, "domain_basis": cmat(D12), "action": cmat(AD12)},
                "bound": cmat(T12 + np.eye(12)),
                "sample_count": 3,
            },
        },
    ),
    "complete_identity": (
        "complete",
        0,
        {
            "kind": "halmos_block",
            "payload": {
                "a11": rmat([[1, 0], [0, 1]]),
                "a21": rmat([[0.5, 0.25]]),
            },
        },
    ),
    "complete_halmos": (
        "complete",
        2,
        {"kind": "halmos_block", "payload": {"a11": rmat([[0]]), "a21": rmat([[1]])}},
    ),
    "complete_rank_deficient": (
        "complete",
        2,
        {
            "kind": "halmos_block",
            "payload": {"a11": rmat([[1, 0], [0, 0]]), "a21": rmat([[0, 1]])},
        },
    ),
    "kernel_m2_ones": (
        "kernel",
        0,
        {
            "kind": "kernel_problem",
            "payload": {
                "set_size": 2,
                "fiber_dim": 1,
                "domain_basis": rmat([[1], [0]]),
                "action": rmat([[1], [1]]),
            },
        },
    ),
    "kernel_full_recovery": (
        "kernel",
        0,
        {
            "kind": "kernel_problem",
            "payload": {
                "set_size": 2,
                "fiber_dim": 1,
                "domain_basis": rmat([[1, 0], [0, 1]]),
                "action": rmat([[2, 1], [1, 2]]),
            },
        },
    ),
    "kernel_m2_fiber8": (
        "kernel",
        0,
        {
            "kind": "kernel_problem",
            "payload": {
                "set_size": 2,
                "fiber_dim": 8,
                "domain_basis": cmat(D16),
                "action": cmat(AD16),
            },
        },
    ),
    "functional_m2": (
        "functional",
        0,
        {
            "kind": "star_algebra_problem",
            "payload": {
                "dim": 4,
                "mult": M2_MULT,
                "invol": M2_INVOL,
                "unit": M2_UNIT,
                "ideal_basis": M2_IDEAL,
                "functional": rvec(1, 0),
            },
        },
    ),
    "functional_m2_fmax": (
        "functional",
        0,
        {
            "kind": "star_algebra_problem",
            "payload": {
                "dim": 4,
                "mult": M2_MULT,
                "invol": M2_INVOL,
                "unit": M2_UNIT,
                "ideal_basis": M2_IDEAL,
                "functional": rvec(1, 0),
                "bound_functional": rvec(1, 0, 0, 1),
            },
        },
    ),
    "functional_m3_fmax": (
        "functional",
        0,
        {
            "kind": "star_algebra_problem",
            "payload": {
                "dim": 9,
                "mult": M3_MULT,
                "invol": M3_INVOL,
                "unit": M3_UNIT,
                "ideal_basis": M3_IDEAL,
                # E_a0 -> tr(RHO E_a0) = RHO[0, a]; E_ab -> (RHO + SIGMA)[b, a]
                "functional": cmat([RHO[0]])[0],
                "bound_functional": cmat([(RHO + SIGMA).T.ravel()])[0],
            },
        },
    ),
    # f(E11) = 0, f(E21) = 1: a* a = (|a_11|^2 + |a_21|^2) E11 on the ideal, so
    # f(a* a) vanishes there while f(E21) = 1: admissible, not Hilbert bounded
    "functional_m2_unbounded": (
        "functional",
        2,
        {
            "kind": "star_algebra_problem",
            "payload": {
                "dim": 4,
                "mult": M2_MULT,
                "invol": M2_INVOL,
                "unit": M2_UNIT,
                "ideal_basis": M2_IDEAL,
                "functional": rvec(0, 1),
            },
        },
    ),
    "functional_not_positive": (
        "functional",
        1,
        {
            "kind": "star_algebra_problem",
            "payload": {
                "dim": 4,
                "mult": M2_MULT,
                "invol": M2_INVOL,
                "unit": M2_UNIT,
                "ideal_basis": M2_IDEAL,
                "functional": rvec(-1, 0),
            },
        },
    ),
    "commutation_diag": (
        "commutation",
        0,
        {
            "kind": "commutation_problem",
            "payload": {
                "partial_operator": {
                    "dim": 2,
                    "domain_basis": rmat([[1], [0]]),
                    "action": rmat([[1], [0]]),
                },
                "b": rmat([[2, 0], [0, 5]]),
                "c": rmat([[2, 0], [0, 5]]),
            },
        },
    ),
    "commutation_not_invariant": (
        "commutation",
        2,
        {
            "kind": "commutation_problem",
            "payload": {
                "partial_operator": {
                    "dim": 2,
                    "domain_basis": rmat([[1], [0]]),
                    "action": rmat([[1], [0]]),
                },
                "b": rmat([[0, 1], [0, 0]]),
                "c": rmat([[0, 1], [0, 0]]),
            },
        },
    ),
    "schwarz_diag": (
        "schwarz",
        0,
        {
            "kind": "schwarz_problem",
            "payload": {
                "operators": [rmat([[2, 0], [0, 1]])],
                "vectors": [rvec(1, 0)],
                "iterations": 150,
            },
        },
    ),
}

# The strict profile's values (numcore.STRICT_TOL), set in the file: a twin of
# one fixture per command, so that byte-identity also covers the profile
# whose certificates take other paths.
STRICT = {"rank_rel_eps": 1e-12, "psd_tol": 1e-11, "cmp_tol": 1e-10}
STRICT_TWINS = (
    "check_running2",
    "extend_running2",
    "extend_bounded_n12",
    "extend_bound_too_small",
    "complete_identity",
    "kernel_m2_fiber8",
    "functional_m2",
    "functional_m3_fmax",
    "commutation_diag",
    "schwarz_diag",
)
for _name in STRICT_TWINS:
    _command, _code, _doc = FIXTURE_SPECS[_name]
    FIXTURE_SPECS[f"{_name}_strict"] = (_command, _code, {**_doc, "tolerances": dict(STRICT)})


def fixture_text(name: str) -> str:
    """The fixture file of a spec, as written to ``fixtures/<name>.json``."""
    doc = {"schema_version": "1"}
    doc.update(FIXTURE_SPECS[name][2])
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from kvnext import cli

    FIXTURES.mkdir(exist_ok=True)
    GOLDEN.mkdir(exist_ok=True)
    for name, (command, expected_exit, _) in FIXTURE_SPECS.items():
        fixture_path = FIXTURES / f"{name}.json"
        fixture_path.write_text(fixture_text(name))
        golden_path = GOLDEN / f"{name}.report.json"
        code = cli.main([command, str(fixture_path), "--out", str(golden_path)])
        if code != expected_exit:
            raise SystemExit(
                f"{name}: expected exit {expected_exit}, got {code}; refusing to freeze"
            )
        print(f"{name}: exit {code}, {golden_path.name} written")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
