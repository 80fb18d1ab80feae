"""Command-line front end: JSON problem files in, JSON reports out.

Complex scalars are two-element arrays [re, im]; matrices are row-major
nested arrays of such pairs; extended reals are numbers or the string
"inf".  Exit codes: 0 ok, 1 invalid input, 2 mathematically infeasible.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import extension_set, kernels, partial_op, schwarz, star_algebra
from . import commutation as commutation_mod
from . import kvn as kvn_mod
from .errors import Infeasible, InvalidInput, KvnError
from .numcore import DEFAULT_TOL, STRICT_TOL, ToleranceConfig

SCHEMA_VERSION = "1"

KINDS = {
    "check": ("partial_operator",),
    "extend": ("partial_operator", "bounded_extension"),
    "complete": ("halmos_block",),
    "kernel": ("kernel_problem",),
    "functional": ("star_algebra_problem",),
    "commutation": ("commutation_problem",),
    "schwarz": ("schwarz_problem",),
}


class CliInputError(Exception):
    pass


def _is_number(obj) -> bool:
    # bool is a subclass of int, but JSON true/false are not numbers
    return isinstance(obj, (int, float)) and not isinstance(obj, bool)


def _scalar_in(obj, where: str) -> complex:
    if _is_number(obj):
        return complex(obj)
    if isinstance(obj, list) and len(obj) == 2 and all(_is_number(v) for v in obj):
        return complex(obj[0], obj[1])
    raise CliInputError(f"{where}: expected a number or [re, im] pair")


def vector_in(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list):
        raise CliInputError(f"{where}: expected a list")
    return np.array([_scalar_in(v, where) for v in obj], dtype=np.complex128)


def matrix_in(obj, where: str, cols: int | None = None) -> np.ndarray:
    if not isinstance(obj, list):
        raise CliInputError(f"{where}: expected a list of rows")
    rows = [vector_in(r, where) for r in obj]
    if not rows:
        return np.zeros((0, 0 if cols is None else cols), dtype=np.complex128)
    width = rows[0].size if cols is None else cols
    if any(r.size != width for r in rows):
        raise CliInputError(f"{where}: ragged rows")
    if width == 0:
        return np.zeros((len(rows), 0), dtype=np.complex128)
    return np.vstack(rows)


def matrix_out(m) -> list:
    """Nested lists of [re, im] pairs, one level per axis of ``m``."""
    a = np.asarray(m, dtype=np.complex128)
    return np.stack([a.real, a.imag], -1).tolist()


def vector_out(v) -> list:
    return matrix_out(np.ravel(v))


def ext_real_out(x: float):
    return "inf" if math.isinf(x) else float(x)


def _tolerances(args, file_tol: dict | None) -> ToleranceConfig:
    profile = os.environ.get("KVN_TOL_PROFILE", "default")
    if profile not in ("default", "strict"):
        raise CliInputError(f"unknown KVN_TOL_PROFILE {profile!r}")
    base = STRICT_TOL if profile == "strict" else DEFAULT_TOL
    values = {
        "rank_rel_eps": base.rank_rel_eps,
        "psd_tol": base.psd_tol,
        "cmp_tol": base.cmp_tol,
    }
    if file_tol is not None:
        if not isinstance(file_tol, dict):
            raise CliInputError("tolerances: expected an object")
        for key in file_tol:
            if key not in values:
                raise CliInputError(f"tolerances: unknown key {key!r}")
            values[key] = float(file_tol[key])
    if args.tol_rank is not None:
        values["rank_rel_eps"] = args.tol_rank
    if args.tol_psd is not None:
        values["psd_tol"] = args.tol_psd
    if args.tol_cmp is not None:
        values["cmp_tol"] = args.tol_cmp
    try:
        return ToleranceConfig(**values)
    except ValueError as exc:
        raise CliInputError(str(exc))


def _partial_operator_in(payload: dict, where: str = "payload") -> partial_op.PartialOperator:
    n = int(payload["dim"])
    basis = matrix_in(payload["domain_basis"], f"{where}.domain_basis")
    action = matrix_in(payload["action"], f"{where}.action")
    if basis.size == 0:
        basis = basis.reshape(n, -1) if basis.shape[0] in (0, n) else basis
        action = action.reshape(n, -1) if action.shape[0] in (0, n) else action
        if basis.shape[0] == 0:
            basis = np.zeros((n, 0), dtype=np.complex128)
            action = np.zeros((n, 0), dtype=np.complex128)
    if basis.shape[0] != n:
        raise CliInputError(f"{where}: domain_basis must have {n} rows")
    return partial_op.PartialOperator(basis, action)


def run_check(payload: dict, cfg: ToleranceConfig, seed: int, kind: str) -> tuple[str, dict]:
    op = _partial_operator_in(payload)
    report = partial_op.is_extendible(op, cfg)
    result = {
        "extendible": report.extendible,
        "gram": matrix_out(report.gram),
        "hilbert_bound": ext_real_out(report.hilbert_bound),
    }
    if report.witness is not None:
        result["witness"] = vector_out(report.witness)
        return "not_extendible", result
    return "ok", result


def run_extend(payload: dict, cfg: ToleranceConfig, seed: int, kind: str) -> tuple[str, dict]:
    if kind == "bounded_extension":
        inner = payload.get("partial_operator")
        if not isinstance(inner, dict):
            raise CliInputError("payload.partial_operator: expected an object")
        op = _partial_operator_in(inner, "payload.partial_operator")
        bound = matrix_in(payload["bound"], "payload.bound")
    else:
        op = _partial_operator_in(payload)
        bound = None
    res = kvn_mod.krein_von_neumann(op, cfg)
    result = {
        "a_n": matrix_out(res.a_n),
        "norm": res.norm,
        "rank": res.factorization.r,
    }
    if bound is not None:
        interval = extension_set._interval(op, res.a_n, bound, cfg)
        result["a_max"] = matrix_out(interval.a_max)
        result["degenerate"] = interval.degenerate
        count = payload.get("sample_count", 0)
        if count:
            samples = extension_set._samples(interval, int(count), seed, cfg)
            result["samples"] = [matrix_out(s) for s in samples]
    return "ok", result


def run_complete(payload: dict, cfg: ToleranceConfig, seed: int, kind: str) -> tuple[str, dict]:
    a11 = matrix_in(payload["a11"], "payload.a11")
    a21 = matrix_in(payload["a21"], "payload.a21", cols=a11.shape[0])
    report = extension_set.halmos_complete(a11, a21, cfg)
    result = {
        "completable": report.completable,
        "bounded": report.bounded,
        "range_condition": report.range_condition,
        "bound_constant": ext_real_out(report.bound_constant),
    }
    if report.completable:
        result["a22_min"] = matrix_out(report.a22_min)
        result["completion"] = matrix_out(report.completion)
        return "ok", result
    result["witness"] = vector_out(report.witness)
    return "not_extendible", result


def run_kernel(payload: dict, cfg: ToleranceConfig, seed: int, kind: str) -> tuple[str, dict]:
    m = int(payload["set_size"])
    n = int(payload["fiber_dim"])
    inner = dict(payload)
    inner["dim"] = m * n
    op = _partial_operator_in(inner)
    problem = kernels.KernelProblem(m=m, n=n, sub=op)
    kernel = kernels.extend_kernel(problem, cfg)
    result = {
        "blocks": matrix_out(kernel.blocks),
        "assembled": matrix_out(kernels.operator_from_kernel(kernel)),
        "positive_definite": kernels.is_positive_definite_kernel(kernel, cfg),
    }
    return "ok", result


def run_functional(payload: dict, cfg: ToleranceConfig, seed: int, kind: str) -> tuple[str, dict]:
    m = int(payload["dim"])
    mult_rows = payload["mult"]
    invol = matrix_in(payload["invol"], "payload.invol")
    ideal_basis = matrix_in(payload["ideal_basis"], "payload.ideal_basis")
    values = vector_in(payload["functional"], "payload.functional")
    if not isinstance(mult_rows, list) or len(mult_rows) != m:
        raise CliInputError("payload.mult: expected m lists of m vectors")
    mult = np.zeros((m, m, m), dtype=np.complex128)
    for i, row in enumerate(mult_rows):
        if not isinstance(row, list) or len(row) != m:
            raise CliInputError("payload.mult: expected m lists of m vectors")
        for j, entry in enumerate(row):
            vec = vector_in(entry, f"payload.mult[{i}][{j}]")
            if vec.size != m:
                raise CliInputError(f"payload.mult[{i}][{j}]: expected length {m}")
            mult[i, j] = vec
    unit = payload.get("unit")
    algebra = star_algebra.StarAlgebra(
        mult=mult,
        invol=invol,
        unit=None if unit is None else vector_in(unit, "payload.unit"),
    )
    problem = star_algebra._Problem.validated(
        algebra, star_algebra.LeftIdeal(ideal_basis), cfg
    )
    hb = problem.hilbert(values)
    adm = problem.admissibility(values)
    result = {
        "hilbert_bounded": hb.bounded,
        "hilbert_bound": ext_real_out(hb.constant),
        "admissible": adm.admissible,
        "lambdas": [ext_real_out(v) for v in adm.lambdas],
    }
    if not (hb.bounded and adm.admissible):
        result["witness"] = "no representable extension: " + (
            "not Hilbert bounded" if not hb.bounded else "not admissible"
        )
        return "not_extendible", result
    result["rank"] = problem.spectrum(values).r
    result["f_n"] = vector_out(problem.extend(values))
    if algebra.unit is not None:
        result["f_n_unital"] = vector_out(problem.extend_unital(values))
    bound_values = payload.get("bound_functional")
    if bound_values is not None:
        g = vector_in(bound_values, "payload.bound_functional")
        result["f_max"] = vector_out(problem.f_max(values, g))
    return "ok", result


def run_commutation(payload: dict, cfg: ToleranceConfig, seed: int, kind: str) -> tuple[str, dict]:
    inner = payload.get("partial_operator")
    if not isinstance(inner, dict):
        raise CliInputError("payload.partial_operator: expected an object")
    op = _partial_operator_in(inner, "payload.partial_operator")
    b = matrix_in(payload["b"], "payload.b")
    c = matrix_in(payload["c"], "payload.c")
    report = commutation_mod.verify_commutation(op, b, c, cfg)
    result = {
        "hypotheses_hold": report.hypotheses_hold,
        "residual_cb": report.residual_cb,
        "residual_bc": report.residual_bc,
        "conclusion_holds": report.conclusion_holds,
        "spectral_hypothesis": report.spectral_hypothesis,
    }
    return "ok", result


def run_schwarz(payload: dict, cfg: ToleranceConfig, seed: int, kind: str) -> tuple[str, dict]:
    ops = payload.get("operators")
    vecs = payload.get("vectors")
    if not isinstance(ops, list) or not isinstance(vecs, list):
        raise CliInputError("payload: operators and vectors must be lists")
    mats = [matrix_in(o, f"payload.operators[{j}]") for j, o in enumerate(ops)]
    xs = [vector_in(v, f"payload.vectors[{j}]") for j, v in enumerate(vecs)]
    gap = schwarz.schwarz_gap(mats, xs, cfg)
    iterations = int(payload.get("iterations", 200))
    estimate = schwarz.minimal_constant_estimate(mats, iterations, seed, cfg)
    result = {
        "lhs": gap.lhs,
        "rhs": gap.rhs,
        "constant": gap.constant,
        "holds": gap.lhs <= gap.rhs + cfg.cmp_tol * (1.0 + gap.rhs),
        "minimal_constant_estimate": estimate,
    }
    return "ok", result


_RUNNERS = {
    "check": run_check,
    "extend": run_extend,
    "complete": run_complete,
    "kernel": run_kernel,
    "functional": run_functional,
    "commutation": run_commutation,
    "schwarz": run_schwarz,
}


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(status: str, command: str, result: dict, diagnostics: list[str]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "status": status,
        "command": command,
        "result": result,
        "diagnostics": diagnostics,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kvn",
        description="Positive extension toolkit: check, construct, and complete.",
    )
    parser.add_argument("command", choices=sorted(_RUNNERS))
    parser.add_argument("input", help="problem file (JSON)")
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument("--tol-rank", type=float, default=None)
    parser.add_argument("--tol-psd", type=float, default=None)
    parser.add_argument("--tol-cmp", type=float, default=None)
    parser.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _emit(
            _report("invalid_input", command, {}, [f"cannot read problem file: {exc}"]),
            args.out,
        )
        return 1

    try:
        if not isinstance(data, dict):
            raise CliInputError("problem file must contain a JSON object")
        if data.get("schema_version") != SCHEMA_VERSION:
            raise CliInputError(
                f"unsupported schema_version {data.get('schema_version')!r}"
            )
        kind = data.get("kind")
        if kind not in KINDS[command]:
            raise CliInputError(
                f"command {command!r} expects kind in {KINDS[command]}, got {kind!r}"
            )
        payload = data.get("payload")
        if not isinstance(payload, dict):
            raise CliInputError("payload must be an object")
        cfg = _tolerances(args, data.get("tolerances"))
        seed = args.seed if args.seed is not None else int(data.get("seed", 0))
        status, result = _RUNNERS[command](payload, cfg, seed, kind)
    except KeyError as exc:
        _emit(_report("invalid_input", command, {}, [f"missing field {exc}"]), args.out)
        return 1
    except (CliInputError, InvalidInput, ValueError) as exc:
        _emit(_report("invalid_input", command, {}, [str(exc)]), args.out)
        return 1
    except Infeasible as exc:
        result = {"reason": str(exc)}
        cert = getattr(exc, "certificate", None)
        if cert is not None:
            result["witness"] = vector_out(np.asarray(cert).reshape(-1))
        else:
            result["witness"] = str(exc)
        _emit(_report("not_extendible", command, result, [str(exc)]), args.out)
        return 2
    except KvnError as exc:
        _emit(_report("invalid_input", command, {}, [str(exc)]), args.out)
        return 1

    _emit(_report(status, command, result, []), args.out)
    return 0 if status == "ok" else 2


if __name__ == "__main__":
    sys.exit(main())
