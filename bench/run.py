"""kvnext benchmark: runs one workload and prints its metrics.

    python3 bench/run.py --workload op-dense --seed 1 --seconds 18 --trace 0

Run from anywhere inside a checkout; the program measured is the
checkout's ``src/kvnext``.  With ``--trace 0`` it times SETUP_RUNS fresh
set-up processes, then one measuring process that replays the CLI golden
corpus, warms up and runs the closed loop; it prints the end-to-end
metrics, with times scaled by the machine probe.  With ``--trace 1`` the
measuring process sends each request of one cycle untraced and traced,
and this script prints the per-layer metrics.  Every line before the
last is for people; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("op-dense", "cli-small", "algebra-gns")
SETUP_RUNS = 5
# All workers of one run must end within this many seconds.
RUN_TIMEOUT_S = 170
# One BLAS thread: on 2 cores a second thread bought nothing and added noise.
BLAS_THREADS = "1"
# Times are scaled to a machine on which the probe (MachineProbe in
# worker.py) takes this long: its time on the 2-vCPU Xeon VM the benchmark
# was developed on, when no other tenant slowed it (0.75-0.84 ms).
PROBE_REFERENCE_S = 0.8e-3


def worker_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("KVN_TOL_PROFILE", None)  # the golden corpus uses the default tolerances
    return env


def run_worker(deadline, *args):
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), *map(str, args)]
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        env=worker_env(),
        capture_output=True,
        text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timing(latencies):
    return {
        "throughput_rps": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_p90_ms": (1e3 * statistics.quantiles(latencies, n=10)[8], "ms"),
    }


def end_to_end(setups, result):
    """The end-to-end metrics.  Every time is multiplied by
    PROBE_REFERENCE_S over the probe time measured around it."""
    latencies = [t * PROBE_REFERENCE_S / p for t, p in zip(result["latencies"], result["probes"])]
    setup = [s["setup_s"] * PROBE_REFERENCE_S / s["probe"] for s in setups]
    attempted, failed = result["attempted"], len(result["failures"])
    return {
        **timing(latencies),
        "success_rate": (1.0 - failed / attempted, "ratio"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--requests", type=int, default=0, help="measure only this many requests (smoke tests)"
    )
    args = parser.parse_args(argv)

    needed = [
        os.path.join(ROOT, "src", "kvnext", "__init__.py"),
        os.path.join(ROOT, "tests", "fixtures"),
        os.path.join(ROOT, "tests", "golden"),
    ]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        print(f"error: not a kvnext checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(BENCH, "_work"), exist_ok=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        setups = []
        if not args.trace:
            setups = [
                run_worker(deadline, "setup", ROOT, args.workload, args.seed)
                for _ in range(SETUP_RUNS)
            ]
        result = run_worker(
            deadline, "measure", ROOT, args.workload, args.seed, args.seconds, args.trace, args.requests
        )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(os.path.join(BENCH, "_work"))
        except OSError:
            pass

    failures = result["failures"] + [f for s in setups for f in s["failures"]]
    attempted = result["attempted"] + sum(s["attempted"] for s in setups)
    meta = result["metadata"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine " + "  ".join(f"{k}={v}" for k, v in meta.items()))
    if args.trace:
        metrics = result["per_layer"]
        for kind, counts in result["lapack_by_kind"].items():
            print(f"lapack calls per {kind} request: " + " ".join(f"{k}={v:g}" for k, v in counts.items()))
    else:
        metrics = end_to_end(setups, result)
        print(f"requests {len(result['latencies'])} timed, closed loop, one client")
        raw = timing(result["latencies"])
        raw["setup_s"] = (statistics.median(s["setup_s"] for s in setups), "s")
        print("uncorrected for machine speed: " + "  ".join(f"{k} {v:.6g} {u}" for k, (v, u) in raw.items()))
        probes = sorted(result["probes"])
        print(
            f"machine probe: fastest {1e3 * probes[0]:.4g} ms, median {1e3 * statistics.median(probes):.4g} ms,"
            f" times below scaled to {1e3 * PROBE_REFERENCE_S:g} ms"
        )
        print(f"error_rate {len(failures) / attempted:.6g} ratio ({len(failures)} of {attempted})")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
