"""The benchmark's own output oracle, replayed on one request of each kind.

``bench/workloads.py`` checks every benchmark request against facts built
into its problem, reading kvnext's results by name (``factorization.r``,
``norm``, report keys).  Sending each workload's warm-up requests, one of
each kind at its smallest size, through that oracle here makes a renamed
attribute or key fail the suite rather than a benchmark run.
"""

import importlib.util
import pathlib
import sys

import pytest

import kvnext
import kvnext.cli  # noqa: F401  (the CLI requests' entry point)

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _workloads():
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_warmup_requests_pass_the_bench_oracle(name, tmp_path):
    workload = WORKLOADS.WORKLOADS[name]
    caller = WORKLOADS.Caller(kvnext, tmp_path)
    for index, spec in enumerate(workload.warmup_specs()):
        req = workload.make(7, index, spec)
        caller.prepare(req)
        assert caller.check(req, caller.call(req)) is None, spec
