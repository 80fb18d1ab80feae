"""Per-layer tracing from outside the program.

The tracer replaces every public function of each kvnext layer module at
every module attribute bound to it (``krein_von_neumann`` is bound in kvn,
extension_set, kernels, commutation, star_algebra and the package), the
``numpy.linalg`` LAPACK routines the modules call directly, and
``json.load``/``json.dumps`` as the cli module sees them.  Each call made
while a request is traced records a span: function, start, end, parent
span and computed floating-point operations.  A span's self time is its
duration minus that of its child spans.

Spans of a request stay in memory until the request ends; they are then
folded into per-function counts and self times, so nothing is written
while a request runs and memory stays bounded on the algebra workload,
whose requests make tens of thousands of calls.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import time
import types
from collections import Counter, defaultdict

import numpy as np

LAYERS = (
    "cli",
    "star_algebra",
    "extension_set",
    "kernels",
    "commutation",
    "schwarz",
    "kvn",
    "partial_op",
    "numcore",
)
LAPACK = ("eigh", "eigvalsh", "svd", "lstsq", "qr")
DECODE = frozenset({"cli.json.load", "cli.matrix_in", "cli.vector_in"})
ENCODE = frozenset({"cli.json.dumps", "cli.matrix_out", "cli.vector_out"})


def _dims(a):
    """(batch, rows, cols) of a matrix argument and whether it is complex."""
    a = np.asarray(a)
    m, n = a.shape[-2:]
    return math.prod(a.shape[:-2]), m, n, a.dtype.kind == "c"


def lapack_flops(name, args, kwargs):
    """Computed flop count of one call, from the argument shapes.

    Real-arithmetic counts from Golub & Van Loan, Matrix Computations,
    times 4 for complex data:
      eigh      9 n^3               symmetric QR with eigenvectors
      eigvalsh  4/3 n^3             tridiagonalization; QR steps are O(n^2)
      svd       4 m n^2 - 4/3 n^3   singular values only (Golub-Reinsch),
                4 m^2 n + 8 m n^2 + 9 n^3  with full U and V,
                14 m n^2 + 8 n^3    with thin U and V         (m >= n)
      lstsq     4 m n^2 + 8 n^3     SVD least squares (Golub-Reinsch)
      qr        2 n^2 (m - n/3)     Householder R, doubled when Q is formed
    """
    batch, m, n, cplx = _dims(args[0])
    big, small = max(m, n), min(m, n)
    if name == "eigh":
        f = 9.0 * n**3
    elif name == "eigvalsh":
        f = 4.0 / 3.0 * n**3
    elif name == "svd":
        if not kwargs.get("compute_uv", args[2] if len(args) > 2 else True):
            f = 4.0 * big * small**2 - 4.0 / 3.0 * small**3
        elif kwargs.get("full_matrices", args[1] if len(args) > 1 else True):
            f = 4.0 * big**2 * small + 8.0 * big * small**2 + 9.0 * small**3
        else:
            f = 14.0 * big * small**2 + 8.0 * small**3
    elif name == "lstsq":
        f = 4.0 * big * small**2 + 8.0 * small**3
    else:
        mode = kwargs.get("mode", args[1] if len(args) > 1 else "reduced")
        f = 2.0 * small**2 * (big - small / 3.0) * (1 if mode == "r" else 2)
    return batch * f * (4.0 if cplx else 1.0)


class Tracer:
    """Wraps the program's layers; records spans only between begin and end."""

    def __init__(self):
        self.active = False
        self.spans = []  # [key, start, end, parent, flops] of the current request
        self.stack = []
        self._bindings = None
        self._saved = []  # (holder, attribute, original) while installed

    def _wrap(self, key, fn, flops=None):
        spans, stack, tracer = self.spans, self.stack, self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [key, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            if flops is not None:
                span[4] = flops(args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _find_bindings(self):
        """(holder, attribute, wrapper) for every binding to replace."""
        pkg = importlib.import_module("kvnext")
        mods = {name: importlib.import_module(f"kvnext.{name}") for name in LAYERS}
        holders = [pkg, *mods.values()]
        patches = []
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for holder in holders:
                    patches += [(holder, name, wrapped) for name, v in vars(holder).items() if v is fn]
        for name in LAPACK:
            flops = lambda args, kwargs, name=name: lapack_flops(name, args, kwargs)
            patches.append((np.linalg, name, self._wrap(f"lapack.{name}", getattr(np.linalg, name), flops)))
        proxy = types.SimpleNamespace(**{k: getattr(json, k) for k in dir(json) if not k.startswith("_")})
        proxy.load = self._wrap("cli.json.load", json.load)
        proxy.dumps = self._wrap("cli.json.dumps", json.dumps)
        patches.append((mods["cli"], "json", proxy))
        return patches

    def install(self):
        if self._bindings is None:
            self._bindings = self._find_bindings()
        for holder, attr, value in self._bindings:
            self._saved.append((holder, attr, getattr(holder, attr)))
            setattr(holder, attr, value)

    def uninstall(self):
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()

    def begin(self):
        self.spans.clear()
        self.stack.clear()
        self.active = True

    def end(self):
        """Stop recording and fold the request's spans into a summary."""
        self.active = False
        spans = self.spans
        child = [0.0] * len(spans)
        for key, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), defaultdict(float)
        decode = encode = flops = 0.0
        for i, (key, start, end, parent, f) in enumerate(spans):
            calls[key] += 1
            self_s[key] += end - start - child[i]
            flops += f
            outer = spans[parent][0] if parent >= 0 else None
            if key in DECODE and outer not in DECODE:
                decode += end - start
            elif key in ENCODE and outer not in ENCODE:
                encode += end - start
        spans.clear()
        return {"calls": calls, "self_s": self_s, "decode_s": decode, "encode_s": encode, "flops": flops}


def per_layer(summaries, overhead_ratio):
    """The per-layer metrics, averaged over the traced requests."""
    n = len(summaries)
    calls, self_s = Counter(), defaultdict(float)
    for s in summaries:
        calls.update(s["calls"])
        for key, v in s["self_s"].items():
            self_s[key] += v

    def layer_ms(layer):
        return 1e3 * sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer) / n

    def layer_calls(layer):
        return sum(v for k, v in calls.items() if k.split(".", 1)[0] == layer) / n

    out = {f"lapack.{name}.calls_per_req": (calls[f"lapack.{name}"] / n, "count") for name in LAPACK}
    out["lapack.gflop_per_req_computed"] = (sum(s["flops"] for s in summaries) / 1e9 / n, "GFLOP")
    out["lapack.self_ms_per_req"] = (layer_ms("lapack"), "ms")
    out["numcore.calls_per_req"] = (layer_calls("numcore"), "count")
    out["numcore.self_ms_per_req"] = (layer_ms("numcore"), "ms")
    for key in (
        "partial_op.validate",
        "partial_op.gram_spectrum",
        "kvn.krein_von_neumann",
        "star_algebra.validate_algebra",
        "star_algebra.induced_operator",
    ):
        out[f"{key}.calls_per_req"] = (calls[key] / n, "count")
    for layer in ("partial_op", "kvn", "extension_set", "kernels", "commutation", "schwarz", "star_algebra", "cli"):
        out[f"{layer}.self_ms_per_req"] = (layer_ms(layer), "ms")
    out["cli.decode_ms_per_req"] = (1e3 * sum(s["decode_s"] for s in summaries) / n, "ms")
    out["cli.encode_ms_per_req"] = (1e3 * sum(s["encode_s"] for s in summaries) / n, "ms")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out


def lapack_by_kind(kinds, summaries):
    """Mean LAPACK calls per request, for each request kind."""
    total, count = defaultdict(Counter), Counter()
    for kind, s in zip(kinds, summaries):
        count[kind] += 1
        for name in LAPACK:
            total[kind][name] += s["calls"][f"lapack.{name}"]
    return {k: {name: total[k][name] / count[k] for name in LAPACK} for k in sorted(count)}
