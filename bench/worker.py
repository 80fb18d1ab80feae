"""One benchmark process: set-up timing, or the closed-loop measurement.

    python3 bench/worker.py setup   ROOT WORKLOAD SEED
    python3 bench/worker.py measure ROOT WORKLOAD SEED SECONDS TRACE REQUESTS

ROOT is the checkout whose ``src/kvnext`` is measured.  run.py starts
this script with BLAS pinned to one thread and reads the JSON object on
the last line of its output.  Only the standard library is imported
before ``import kvnext`` is timed.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from typing import NamedTuple

# Requests a timed run holds at least, so that ten lie beyond its p90.
MIN_REQUESTS = 100
# Request indices of warm-up requests, apart from those of timed requests.
WARMUP_INDEX = 1 << 40
EXIT_CODES = {"ok": 0, "invalid_input": 1, "not_extendible": 2}


def import_kvnext(root):
    """Import kvnext and its CLI from ROOT/src; returns (package, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, os.path.join(root, "src"))
    import kvnext
    import kvnext.cli  # noqa: F401  (the CLI workloads' entry point)

    return kvnext, time.perf_counter() - start


class Sent(NamedTuple):
    elapsed: float  # seconds in the program
    failure: str | None
    summary: dict | None  # the trace of the request, when traced
    probe: float | None  # probe time just before the call, when probed


class MachineProbe:
    """Times a fixed kernel of interpreter, LAPACK and memory work.

    Other tenants of a virtual machine's host slow all work, by up to 80%
    for seconds at a time.  The probe's time next to a request tells how
    fast the machine was while the request ran: on a 2-vCPU Xeon VM, probe
    and request times correlated at 0.86-0.93.  The kernel runs once to
    warm the caches, then the faster of two runs is taken."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self._h = a + a.conj().T
        self._block = rng.standard_normal(1 << 18)  # 2 MB
        self._eigh = np.linalg.eigh

    def _kernel(self):
        start = time.perf_counter()
        self._eigh(self._h)
        self._block.sum()
        total = 0
        for i in range(2000):
            total += i * i
        return time.perf_counter() - start

    def __call__(self):
        self._kernel()
        return min(self._kernel(), self._kernel())


def send(caller, req, tracer=None, probe=None):
    """One request: untimed preparation (and ``probe``, if given), the timed
    call, the untimed check."""
    caller.prepare(req)
    before = probe() if probe else None
    if tracer is not None:
        tracer.begin()
    start = time.perf_counter()
    try:
        out = caller.call(req)
    except Exception as exc:  # a failed request; the run goes on
        out, failure = None, f"raised {type(exc).__name__}: {exc}"
    else:
        failure = None
    elapsed = time.perf_counter() - start
    summary = tracer.end() if tracer is not None else None
    if failure is None:
        try:
            failure = caller.check(req, out)
        except Exception:  # malformed output
            failure = "check raised: " + traceback.format_exc(limit=2)
    return Sent(elapsed, failure, summary, before)


def replay_golden(kx, root, workdir):
    """Replay the CLI fixture corpus; returns (replayed, mismatches)."""
    fixtures = os.path.join(root, "tests", "fixtures")
    names = sorted(f[: -len(".json")] for f in os.listdir(fixtures) if f.endswith(".json"))
    if not names:
        raise FileNotFoundError(f"no fixtures in {fixtures}")
    out = os.path.join(workdir, "golden.report.json")
    mismatches = []
    for name in names:
        with open(os.path.join(root, "tests", "golden", f"{name}.report.json"), "rb") as fh:
            golden = fh.read()
        command = name.split("_", 1)[0]
        code = kx.cli.main([command, os.path.join(fixtures, f"{name}.json"), "--out", out])
        with open(out, "rb") as fh:
            report = fh.read()
        if report != golden or code != EXIT_CODES[json.loads(golden)["status"]]:
            mismatches.append(name)
    return len(names), mismatches


def metadata():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def setup(root, name, seed, workdir):
    """Fresh-process set-up: import kvnext, then one warm-up request of
    each kind on its smallest problem.  Input generation is not timed.
    The machine is probed after the import and after the warm-ups."""
    kx, import_s = import_kvnext(root)
    import workloads

    probe = MachineProbe()
    probes = [probe()]
    wl = workloads.WORKLOADS[name]
    caller = workloads.Caller(kx, workdir)
    busy, failures = 0.0, []
    for i, spec in enumerate(wl.warmup_specs()):
        sent = send(caller, wl.make(seed, WARMUP_INDEX + i, spec))
        busy += sent.elapsed
        if sent.failure:
            failures.append(f"warm-up {spec}: {sent.failure}")
    probes.append(probe())
    return {
        "setup_s": import_s + busy,
        "probe": sum(probes) / 2,
        "attempted": len(wl.warmup_specs()),
        "failures": failures,
    }


def run_requests(wl, caller, seed, seconds, limit):
    """Closed loop, one client: whole cycles until ``seconds`` of requests
    and MIN_REQUESTS are done, or only the first ``limit`` requests.

    The machine is probed before every request and once after the last.
    Returns (latencies, probe time around each request, failures)."""
    probe = MachineProbe()
    latencies, probes, failures = [], [], []
    for cycle_no in itertools.count():
        for pos, spec in enumerate(wl.order(seed, cycle_no)[: limit or None]):
            sent = send(caller, wl.make(seed, cycle_no * len(wl.cycle) + pos, spec), probe=probe)
            latencies.append(sent.elapsed)
            probes.append(sent.probe)
            if sent.failure:
                failures.append(f"{spec}: {sent.failure}")
        if limit or (sum(latencies) >= seconds and len(latencies) >= MIN_REQUESTS):
            break
    probes.append(probe())
    return latencies, [(a + b) / 2 for a, b in zip(probes, probes[1:])], failures


def traced_cycle(wl, caller, seed, limit):
    """Send each request of one cycle twice, untraced and traced, in
    alternating order so that neither side always finds the caches warm.
    The tracer is installed only around the traced call.
    Returns (requests, per-layer metrics, LAPACK calls by kind, failures)."""
    import tracing

    plain, traced, kinds, summaries, failures = [], [], [], [], []
    tracer = tracing.Tracer()
    for i, spec in enumerate(wl.order(seed, 0)[: limit or None]):
        req = wl.make(seed, i, spec)
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            if with_trace:
                tracer.install()
            try:
                sent = send(caller, req, tracer if with_trace else None)
            finally:
                tracer.uninstall()
            if with_trace:
                traced.append(sent.elapsed)
                summaries.append(sent.summary)
            else:
                plain.append(sent.elapsed)
            if sent.failure:
                failures.append(f"{spec}{' traced' if with_trace else ''}: {sent.failure}")
        kinds.append(spec.kind)
    return (
        2 * len(plain),
        tracing.per_layer(summaries, sum(traced) / sum(plain)),
        tracing.lapack_by_kind(kinds, summaries),
        failures,
    )


def measure(root, name, seed, seconds, trace, limit, workdir):
    kx, _ = import_kvnext(root)
    import workloads

    wl = workloads.WORKLOADS[name]
    caller = workloads.Caller(kx, workdir)
    replayed, mismatches = replay_golden(kx, root, workdir)
    failures = [f"golden report differs: {m}" for m in mismatches]
    for i, spec in enumerate(wl.warmup_specs()):
        failure = send(caller, wl.make(seed, WARMUP_INDEX + i, spec)).failure
        if failure:
            failures.append(f"warm-up {spec}: {failure}")
    result = {"metadata": metadata()}
    if trace:
        sent, result["per_layer"], result["lapack_by_kind"], failed = traced_cycle(wl, caller, seed, limit)
    else:
        latencies, probes, failed = run_requests(wl, caller, seed, seconds, limit)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["latencies"] = latencies
        result["probes"] = probes
        sent = len(latencies)
    result["attempted"] = replayed + len(wl.warmup_specs()) + sent
    result["failures"] = failures + failed
    return result


def main(argv):
    mode, root, name, seed = argv[0], argv[1], argv[2], int(argv[3])
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.join(root, "bench", "_work"))
    try:
        if mode == "setup":
            result = setup(root, name, seed, workdir)
        else:
            seconds, trace, limit = float(argv[4]), argv[5] == "1", int(argv[6])
            result = measure(root, name, seed, seconds, trace, limit, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
