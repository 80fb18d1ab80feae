"""Smoke tests of the benchmark itself, outside the tier-1 suite:

    python3 -m pytest -q bench/test_smoke.py

Each workload runs a few requests through run.py, in both modes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, requests=4):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--requests", str(requests)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def assert_metrics(lines, out, wanted):
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in wanted}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units
    for name, unit in units.items():
        assert any(l.startswith(f"{name} ") and l.endswith(f" {unit}") for l in lines), name


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_end_to_end_metrics_printed_and_no_errors(workload):
    lines, out = run_bench(workload, trace=0)
    assert_metrics(lines, out, SPEC["end_to_end"])
    assert any(l.startswith("error_rate 0 ratio") for l in lines)
    assert out["metrics"]["success_rate"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_per_layer_metrics_printed(workload):
    lines, out = run_bench(workload, trace=1)
    assert_metrics(lines, out, SPEC["per_layer"])


def input_digests(seed):
    """Digests of the first requests of every workload, made in a fresh process."""
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {BENCH!r})\n"
        "import workloads as W\n"
        "out = {}\n"
        "for name, wl in W.WORKLOADS.items():\n"
        f"    specs = wl.order({seed}, 0)[:3]\n"
        f"    out[name] = [W.digest(wl.make({seed}, i, s)) for i, s in enumerate(specs)]\n"
        "print(json.dumps(out))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_same_seed_gives_byte_identical_inputs():
    first = input_digests(11)
    assert first == input_digests(11)
    other = input_digests(12)
    assert all(first[name] != other[name] for name in first)


def test_lapack_counts_match_the_roadmap_baseline():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, BENCH)
    import kvnext
    import tracing
    import workloads
    from worker import send

    wl = workloads.WORKLOADS["op-dense"]
    caller = workloads.Caller(kvnext, BENCH)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        counts = {}
        for i, spec in enumerate(s for s in wl.warmup_specs() if s.kind in ("krein_von_neumann", "in_interval")):
            sent = send(caller, wl.make(3, i, spec), tracer)
            assert sent.failure is None
            counts[spec] = tuple(sent.summary["calls"][f"lapack.{f}"] for f in ("eigh", "eigvalsh", "svd"))
    finally:
        tracer.uninstall()
    assert len(counts) == 4
    for spec, got in counts.items():
        assert got == {"krein_von_neumann": (4, 3, 1), "in_interval": (8, 10, 2)}[spec.kind], spec
