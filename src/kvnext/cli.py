"""Command-line front end: JSON problem files in, JSON reports out.

Complex scalars are two-element arrays [re, im]; matrices are row-major
nested arrays of such pairs; extended reals are numbers or the string
"inf".  Exit codes: 0 ok, 1 invalid input, 2 mathematically infeasible.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import stat
import sys
from itertools import chain, islice

import numpy as np

from . import extension_set, kernels, partial_op, schwarz, star_algebra
from . import commutation as commutation_mod
from .errors import Infeasible, InvalidInput
from .numcore import DEFAULT_TOL, STRICT_TOL, ToleranceConfig

SCHEMA_VERSION = "1"

# Caps checked before anything is allocated: the space dimension n (an n x n
# result takes 16 n^2 bytes, 16 MiB at the cap, and about 50 MB as report
# text), the samples drawn (each an n x n matrix in the report) and the
# power-iteration steps.
MAX_DIM = 1024
MAX_SAMPLES = 1000
MAX_ITERATIONS = 100_000
_TABLE_MIN = 128  # numbers from which _render's table pays (crossover 70 to 130)
_encode = json.JSONEncoder(allow_nan=False).encode  # json.dumps(x, allow_nan=False), one encoder

class CliInputError(Exception):
    pass


# the types json.load gives JSON numbers; bool is a subclass of int, but
# JSON true/false are not numbers
_NUMBERS = frozenset({int, float})


def _is_number(obj) -> bool:
    return type(obj) in _NUMBERS


def _scalar_in(obj, where: str) -> complex:
    try:
        if _is_number(obj):
            return complex(obj)
        if isinstance(obj, list) and len(obj) == 2 and all(_is_number(v) for v in obj):
            return complex(obj[0], obj[1])
    except OverflowError:
        raise CliInputError(f"{where}: number out of range")
    raise CliInputError(f"{where}: expected a number or [re, im] pair")


def _int_in(obj, where: str, low: int | None = None, high: int | None = None) -> int:
    """An integer, in [low, high] when ``low`` is given."""
    if type(obj) is float and obj.is_integer():
        obj = int(obj)
    if type(obj) is not int:
        raise CliInputError(f"{where}: expected an integer")
    if low is not None and not low <= obj <= high:
        raise CliInputError(f"{where}: expected an integer from {low} to {high}")
    return obj


def _real_in(obj, where: str) -> float:
    if not _is_number(obj):
        raise CliInputError(f"{where}: expected a number")
    try:
        return float(obj)
    except OverflowError:
        raise CliInputError(f"{where}: number out of range")


def _grid_in(obj, axes: int) -> np.ndarray | None:
    """The complex array read off ``axes`` levels of regular lists of
    numbers or of [re, im] pairs, or None if ``obj`` is not such a grid.

    One ``np.asarray`` reads the grid and one pass over the leaves' types
    rejects what numpy would convert silently (true, "1.5", null).  None
    sends the caller to the element-wise walk, which names the error or
    reads a legal grid that mixes bare reals and pairs.
    """
    try:
        a = np.asarray(obj, dtype=np.float64)
    except (ValueError, TypeError, OverflowError):
        return None
    pairs = a.ndim == axes + 1 and a.shape[-1] == 2
    if not (pairs or a.ndim == axes):
        return None
    leaves = obj
    for _ in range(a.ndim - 1):
        leaves = chain.from_iterable(leaves)
    if not set(map(type, leaves)) <= _NUMBERS:
        return None
    if pairs:
        return a.view(np.complex128).reshape(a.shape[:-1])
    return a.astype(np.complex128)


def _walk(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list):
        raise CliInputError(f"{where}: expected a list")
    return np.array([_scalar_in(v, where) for v in obj], dtype=np.complex128)


def vector_in(obj, where: str) -> np.ndarray:
    grid = _grid_in(obj, 1)
    return _walk(obj, where) if grid is None else grid


def matrix_in(obj, where: str, cols: int | None = None) -> np.ndarray:
    if not isinstance(obj, list):
        raise CliInputError(f"{where}: expected a list of rows")
    if not obj:
        return np.zeros((0, 0 if cols is None else cols), dtype=np.complex128)
    grid = _grid_in(obj, 2)
    if grid is None:
        rows = [_walk(r, where) for r in obj]
        if len({r.size for r in rows}) > 1:
            raise CliInputError(f"{where}: ragged rows")
        grid = np.array(rows, dtype=np.complex128)
    if cols is not None and grid.shape[1] != cols:
        raise CliInputError(f"{where}: ragged rows")
    return grid


def _mult_in(obj, m: int) -> np.ndarray:
    """The m x m x m structure tensor: one grid read, or the walk that
    names the first malformed entry and holds no more than it has read."""
    grid = _grid_in(obj, 3)
    if grid is not None and grid.shape == (m, m, m):
        return grid
    if not isinstance(obj, list) or len(obj) != m:
        raise CliInputError("payload.mult: expected m lists of m vectors")
    vecs = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != m:
            raise CliInputError("payload.mult: expected m lists of m vectors")
        for j, entry in enumerate(row):
            vec = vector_in(entry, f"payload.mult[{i}][{j}]")
            if vec.size != m:
                raise CliInputError(f"payload.mult[{i}][{j}]: expected length {m}")
            vecs.append(vec)
    return np.array(vecs).reshape(m, m, m)


def _grid(m) -> np.ndarray:
    """``m`` as one float64 grid of [re, im] pairs, the form reports carry."""
    a = np.asarray(m, dtype=np.complex128)
    return np.stack([a.real, a.imag], -1)


def ext_real_out(x: float):
    return "inf" if math.isinf(x) else float(x)


def _fields_out(report, **extra) -> dict:
    """The fields of the dataclass ``report`` that are not None, and ``extra``,
    as a result: arrays as grids, floats as extended reals."""
    values = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)} | extra
    return {
        k: _grid(v) if isinstance(v, np.ndarray) else ext_real_out(v) if isinstance(v, float) else v
        for k, v in values.items()
        if v is not None
    }


# flag -> the ToleranceConfig field it sets
_TOL_FLAGS = {"tol_rank": "rank_rel_eps", "tol_psd": "psd_tol", "tol_cmp": "cmp_tol"}


def _tolerances(args, file_tol: dict | None) -> ToleranceConfig:
    profile = os.environ.get("KVN_TOL_PROFILE", "default")
    if profile not in ("default", "strict"):
        raise CliInputError(f"unknown KVN_TOL_PROFILE {profile!r}")
    values = {}
    if file_tol is not None:
        if not isinstance(file_tol, dict):
            raise CliInputError("tolerances: expected an object")
        for key in file_tol:
            if key not in _TOL_FLAGS.values():
                raise CliInputError(f"tolerances: unknown key {key!r}")
            values[key] = _real_in(file_tol[key], f"tolerances.{key}")
    for flag, key in _TOL_FLAGS.items():
        if getattr(args, flag) is not None:
            values[key] = getattr(args, flag)
    try:
        return dataclasses.replace(STRICT_TOL if profile == "strict" else DEFAULT_TOL, **values)
    except ValueError as exc:
        raise CliInputError(str(exc))


def _partial_operator_in(obj, where: str, n: int | None = None) -> partial_op.PartialOperator:
    """The partial operator of object ``obj`` on C^n, n read off its ``dim``
    unless given; ``[]`` is an n x 0 domain basis or action."""
    if not isinstance(obj, dict):
        raise CliInputError(f"{where}: expected an object")
    if n is None:
        n = _int_in(obj["dim"], f"{where}.dim", 1, MAX_DIM)

    def columns(key: str) -> np.ndarray:
        m = matrix_in(obj[key], f"{where}.{key}")
        return np.zeros((n, 0), dtype=np.complex128) if m.shape == (0, 0) else m

    basis, action = columns("domain_basis"), columns("action")
    if basis.shape[0] != n:
        raise CliInputError(f"{where}: domain_basis must have {n} rows")
    return partial_op.PartialOperator(basis, action)


def run_check(payload: dict, cfg: ToleranceConfig, seed: int, kind: str) -> tuple[str, dict]:
    report = partial_op.is_extendible(_partial_operator_in(payload, "payload"), cfg)
    return "ok" if report.extendible else "not_extendible", _fields_out(report)


def run_extend(payload: dict, cfg: ToleranceConfig, seed: int, kind: str) -> tuple[str, dict]:
    if kind == "bounded_extension":
        op = _partial_operator_in(payload.get("partial_operator"), "payload.partial_operator")
        bound = matrix_in(payload["bound"], "payload.bound")
    else:
        op = _partial_operator_in(payload, "payload")
        bound = None
    spec = partial_op.gram_spectrum(op, cfg)
    result = {"a_n": _grid(spec.a_n), "norm": spec.hilbert_bound(), "rank": spec.r}
    if bound is not None:
        interval = extension_set._interval(spec, bound)
        result["a_max"] = _grid(interval.a_max)
        result["degenerate"] = interval.degenerate
        count = payload.get("sample_count")
        count = 0 if count is None else _int_in(count, "payload.sample_count", 0, MAX_SAMPLES)
        if count:
            samples = extension_set._samples(interval, count, seed, cfg)
            result["samples"] = [_grid(s) for s in samples]
    return "ok", result


def run_complete(payload: dict, cfg: ToleranceConfig, seed: int, kind: str) -> tuple[str, dict]:
    a11 = matrix_in(payload["a11"], "payload.a11")
    a21 = matrix_in(payload["a21"], "payload.a21", cols=a11.shape[0])
    report = extension_set.halmos_complete(a11, a21, cfg)
    return "ok" if report.completable else "not_extendible", _fields_out(report)


def run_kernel(payload: dict, cfg: ToleranceConfig, seed: int, kind: str) -> tuple[str, dict]:
    m = _int_in(payload["set_size"], "payload.set_size", 1, MAX_DIM)
    n = _int_in(payload["fiber_dim"], "payload.fiber_dim", 1, MAX_DIM // m)
    op = _partial_operator_in(payload, "payload", m * n)
    problem = kernels.KernelProblem(m=m, n=n, sub=op)
    kernel = kernels.extend_kernel(problem, cfg)
    return "ok", _fields_out(
        kernel,
        assembled=kernels.operator_from_kernel(kernel),
        positive_definite=kernels.is_positive_definite_kernel(kernel, cfg),
    )


def run_functional(payload: dict, cfg: ToleranceConfig, seed: int, kind: str) -> tuple[str, dict]:
    m = _int_in(payload["dim"], "payload.dim", 1, MAX_DIM)
    mult_rows = payload["mult"]
    invol = matrix_in(payload["invol"], "payload.invol")
    ideal_basis = matrix_in(payload["ideal_basis"], "payload.ideal_basis")
    values = vector_in(payload["functional"], "payload.functional")
    mult = _mult_in(mult_rows, m)
    unit = payload.get("unit")
    algebra = star_algebra.StarAlgebra(
        mult=mult,
        invol=invol,
        unit=None if unit is None else vector_in(unit, "payload.unit"),
    )
    problem = star_algebra._Problem.validated(
        algebra, star_algebra.LeftIdeal(ideal_basis), cfg
    )
    rec = problem.record(values)
    hb, adm = rec.hilbert, rec.admissibility
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
    result["rank"] = rec.spec.r
    result["f_n"] = _grid(np.ravel(rec.f_n))
    if algebra.unit is not None:
        result["f_n_unital"] = _grid(np.ravel(problem.extend_unital(values)))
    bound_values = payload.get("bound_functional")
    if bound_values is not None:
        g = vector_in(bound_values, "payload.bound_functional")
        result["f_max"] = _grid(np.ravel(problem.f_max(values, g)))
    return "ok", result


def run_commutation(payload: dict, cfg: ToleranceConfig, seed: int, kind: str) -> tuple[str, dict]:
    op = _partial_operator_in(payload.get("partial_operator"), "payload.partial_operator")
    b = matrix_in(payload["b"], "payload.b")
    c = matrix_in(payload["c"], "payload.c")
    return "ok", _fields_out(commutation_mod.verify_commutation(op, b, c, cfg))


def run_schwarz(payload: dict, cfg: ToleranceConfig, seed: int, kind: str) -> tuple[str, dict]:
    ops = payload.get("operators")
    vecs = payload.get("vectors")
    if not isinstance(ops, list) or not isinstance(vecs, list):
        raise CliInputError("payload: operators and vectors must be lists")
    mats = [matrix_in(o, f"payload.operators[{j}]") for j, o in enumerate(ops)]
    xs = [vector_in(v, f"payload.vectors[{j}]") for j, v in enumerate(vecs)]
    family, xs = schwarz._checked_family(mats, xs, cfg)
    gap = family.gap(xs)
    iterations = _int_in(
        payload.get("iterations", 200), "payload.iterations", 0, MAX_ITERATIONS
    )
    return "ok", _fields_out(gap, minimal_constant_estimate=family.estimate(iterations, seed))


# command -> (runner, the problem kinds it accepts)
_COMMANDS = {
    "check": (run_check, ("partial_operator",)),
    "extend": (run_extend, ("partial_operator", "bounded_extension")),
    "complete": (run_complete, ("halmos_block",)),
    "kernel": (run_kernel, ("kernel_problem",)),
    "functional": (run_functional, ("star_algebra_problem",)),
    "commutation": (run_commutation, ("commutation_problem",)),
    "schwarz": (run_schwarz, ("schwarz_problem",)),
}


def _grid_text(grid: np.ndarray, indent: int, texts) -> str:
    """``json.dumps(grid.tolist(), indent=2)`` for a non-empty grid whose
    opening bracket sits on a line indented by ``indent`` spaces.

    The entries' texts, the next ``grid.size`` items of the iterator
    ``texts``, are joined once with the separators between them: between
    two items of the axis ``closed`` places from the last, ``closed`` lists
    end and as many begin.
    """
    ndim = grid.ndim

    def pad(depth: int) -> str:
        return "\n" + " " * (indent + 2 * depth)

    seps: list[str] = []
    for closed, length in enumerate(grid.shape[::-1]):
        sep = (
            "".join(pad(ndim - 1 - k) + "]" for k in range(closed))
            + ","
            + "".join(pad(ndim - closed + k) + "[" for k in range(closed))
            + pad(ndim)
        )
        seps = (seps + [sep]) * (length - 1) + seps
    parts = [""] * (2 * grid.size + 1)
    parts[0] = "[" + "".join(pad(k) + "[" for k in range(1, ndim)) + pad(ndim)
    parts[1::2] = islice(texts, grid.size)
    parts[2:-1:2] = seps
    parts[-1] = "".join(pad(k) + "]" for k in range(ndim - 1, -1, -1))
    return "".join(parts)


def _emit(value, indent: int, out: list) -> None:
    """Append to ``out`` the pieces of ``json.dumps(value, sort_keys=True,
    indent=2, allow_nan=False)`` for a value on a line indented by
    ``indent`` spaces, each non-empty array grid as the pair (grid, indent)
    that :func:`_render` writes as its nested lists.  Raises ValueError
    for a non-finite number outside a grid."""
    if isinstance(value, np.ndarray) and value.size:
        out.append((value, indent))
        return
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict) and value:
        items = [(_encode(k) + ": ", value[k]) for k in sorted(value)]
        brackets = "{}"
    elif isinstance(value, list) and value:
        items = [("", v) for v in value]
        brackets = "[]"
    else:
        out.append(_encode(value))
        return
    pad = "\n" + " " * indent
    sep = brackets[0]
    for key, item in items:
        out.append(sep + pad + "  " + key)
        _emit(item, indent + 2, out)
        sep = ","
    out.append(pad + brackets[1])


def _render(report: dict) -> str:
    """The report's bytes: :func:`_emit`'s pieces and a newline, joined once.
    The numbers of all grids are rendered together by ``float.__repr__``, as
    json renders them; from ``_TABLE_MIN`` numbers on, each distinct magnitude
    once, with "-" before it where the sign bit is set: repr(-x) == "-" +
    repr(x) for every x >= 0.  Raises ValueError for a non-finite number,
    before anything is written."""
    out: list = []
    _emit(report, 0, out)
    values = np.concatenate([np.empty(0)] + [p[0].ravel() for p in out if type(p) is tuple])
    if not np.isfinite(values).all():
        raise ValueError("Out of range float values are not JSON compliant")
    if values.size < _TABLE_MIN:
        texts = map(float.__repr__, values.tolist())
    else:
        mags, index = np.unique(np.abs(values), return_inverse=True)
        table = list(map(float.__repr__, mags.tolist()))
        table = np.array(table + ["-" + t for t in table], dtype=object)
        texts = iter(table[index + mags.size * np.signbit(values)].tolist())
    return "".join([p if type(p) is str else _grid_text(*p, texts) for p in out] + ["\n"])


def _report(status: str, command: str, result: dict, diagnostics: list[str]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "status": status,
        "command": command,
        "result": result,
        "diagnostics": diagnostics,
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``kvn`` argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="kvn",
        description="Positive extension toolkit: check, construct, and complete.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("input", help="problem file (JSON)")
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument("--tol-rank", type=float, default=None)
    parser.add_argument("--tol-psd", type=float, default=None)
    parser.add_argument("--tol-cmp", type=float, default=None)
    parser.add_argument("--seed", type=int, default=None)
    return parser


def _run(args) -> tuple[str, dict, list[str]]:
    """The status, result and diagnostics of one command."""
    command = args.command
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        return "invalid_input", {}, [f"cannot read problem file: {exc}"]

    try:
        if not isinstance(data, dict):
            raise CliInputError("problem file must contain a JSON object")
        if data.get("schema_version") != SCHEMA_VERSION:
            raise CliInputError(
                f"unsupported schema_version {data.get('schema_version')!r}"
            )
        runner, kinds = _COMMANDS[command]
        kind = data.get("kind")
        if kind not in kinds:
            raise CliInputError(f"command {command!r} expects kind in {kinds}, got {kind!r}")
        payload = data.get("payload")
        if not isinstance(payload, dict):
            raise CliInputError("payload must be an object")
        cfg = _tolerances(args, data.get("tolerances"))
        seed = args.seed if args.seed is not None else _int_in(data.get("seed", 0), "seed")
        status, result = runner(payload, cfg, seed, kind)
    except KeyError as exc:
        return "invalid_input", {}, [f"missing field {exc}"]
    except (CliInputError, InvalidInput, ValueError) as exc:
        return "invalid_input", {}, [str(exc)]
    except Infeasible as exc:
        cert = getattr(exc, "certificate", None)
        witness = str(exc) if cert is None else _grid(np.ravel(cert))
        return "not_extendible", {"reason": str(exc), "witness": witness}, [str(exc)]
    return status, result, []


_EXIT_CODES = {"ok": 0, "invalid_input": 1, "not_extendible": 2}


def _write_in_place(path: str, text: str) -> None:
    """Write the UTF-8 bytes of ``text`` to ``path`` over the old bytes, then
    cut a regular file to their length (/dev/null, ttys and FIFOs are not
    cut).  Inode, mode and symlinks fare as with ``open(path, "w")``, but
    the file is never truncated to length 0 first: closing such a file
    makes ext4 without ``noauto_da_alloc`` start writeback of its data,
    which costs more than the write.  Nothing is fsynced."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        st = os.fstat(fd)
        if stat.S_ISREG(st.st_mode) and st.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    status, result, diagnostics = _run(args)
    try:
        text = _render(_report(status, args.command, result, diagnostics))
    except ValueError as exc:  # a result that overflowed to inf or nan
        status = "invalid_input"
        text = _render(
            _report(status, args.command, {}, [f"result is not representable in JSON: {exc}"])
        )
    if args.out:
        try:
            _write_in_place(args.out, text)
        except OSError as exc:
            status = "invalid_input"
            sys.stdout.write(
                _render(_report(status, args.command, {}, [f"cannot write report file: {exc}"]))
            )
    else:
        sys.stdout.write(text)
    return _EXIT_CODES[status]


if __name__ == "__main__":
    sys.exit(main())
