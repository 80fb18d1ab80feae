import dataclasses
import json
import math
import os
import pathlib
import tracemalloc

import numpy as np
import pytest

from kvnext import cli
from kvnext import numcore as nc
from make_golden import FIXTURE_SPECS, STRICT, STRICT_TWINS, fixture_text

HERE = pathlib.Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden"

# fixture name -> (command, expected exit code)
CORPUS = {name: (command, code) for name, (command, code, _) in FIXTURE_SPECS.items()}


def run(name: str, out_path: pathlib.Path, extra=()) -> int:
    command, _ = CORPUS[name]
    argv = [command, str(FIXTURES / f"{name}.json"), "--out", str(out_path)]
    argv.extend(extra)
    return cli.main(argv)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_golden_corpus_byte_identical(name, tmp_path):
    command, expected_exit = CORPUS[name]
    out = tmp_path / "report.json"
    assert run(name, out) == expected_exit
    golden = (GOLDEN / f"{name}.report.json").read_bytes()
    assert out.read_bytes() == golden
    # and again: determinism
    out2 = tmp_path / "report2.json"
    run(name, out2)
    assert out2.read_bytes() == golden


def test_every_fixture_is_its_spec_and_has_a_golden():
    for name in FIXTURE_SPECS:
        assert (FIXTURES / f"{name}.json").read_text() == fixture_text(name), name
        assert (GOLDEN / f"{name}.report.json").is_file(), name
    assert sorted(p.stem for p in FIXTURES.glob("*.json")) == sorted(FIXTURE_SPECS)


def test_strict_twins_set_the_strict_profile():
    assert STRICT == dataclasses.asdict(nc.STRICT_TOL)
    for name in STRICT_TWINS:
        command, code, doc = FIXTURE_SPECS[f"{name}_strict"]
        assert (command, code) == FIXTURE_SPECS[name][:2]
        assert doc == {**FIXTURE_SPECS[name][2], "tolerances": STRICT}


def _matrix(obj) -> np.ndarray:
    return np.array(
        [[complex(entry[0], entry[1]) for entry in row] for row in obj]
    )


def _vector(obj) -> np.ndarray:
    return np.array([complex(e[0], e[1]) for e in obj])


def test_report_values_running_example(tmp_path):
    out = tmp_path / "r.json"
    run("extend_running2", out)
    report = json.loads(out.read_text())
    assert report["status"] == "ok"
    assert np.allclose(_matrix(report["result"]["a_n"]), np.ones((2, 2)))
    assert report["result"]["norm"] == 2.0
    assert report["result"]["rank"] == 1


def test_report_values_bounded(tmp_path):
    out = tmp_path / "r.json"
    run("extend_bounded_3i", out)
    report = json.loads(out.read_text())
    assert np.allclose(_matrix(report["result"]["a_max"]), [[1, 1], [1, 2.5]])
    assert report["result"]["degenerate"] is False
    samples = [_matrix(s) for s in report["result"]["samples"]]
    assert len(samples) == 2
    for s in samples:
        assert np.allclose(s @ np.array([1.0, 0.0]), [1.0, 1.0], atol=1e-9)


def test_report_values_check(tmp_path):
    out = tmp_path / "r.json"
    run("check_running2", out)
    report = json.loads(out.read_text())
    assert report["result"]["extendible"] is True
    assert report["result"]["hilbert_bound"] == 2.0
    # an integral float is an integer: dim 2.0 gives the golden's bytes
    problem = json.loads((FIXTURES / "check_running2.json").read_text())
    problem["payload"]["dim"] = 2.0
    (tmp_path / "dim.json").write_text(json.dumps(problem))
    assert cli.main(["check", str(tmp_path / "dim.json"), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "check_running2.report.json").read_bytes()

    run("check_halmos", out)
    report = json.loads(out.read_text())
    assert report["status"] == "not_extendible"
    assert report["result"]["hilbert_bound"] == "inf"
    assert "witness" in report["result"]


def test_report_values_complete(tmp_path):
    out = tmp_path / "r.json"
    run("complete_identity", out)
    report = json.loads(out.read_text())
    a21 = np.array([[0.5, 0.25]])
    assert np.allclose(_matrix(report["result"]["a22_min"]), a21 @ a21.conj().T)

    run("complete_halmos", out)
    report = json.loads(out.read_text())
    assert report["status"] == "not_extendible"
    assert not report["result"]["completable"]
    assert not report["result"]["bounded"]
    assert not report["result"]["range_condition"]


def test_report_values_kernel(tmp_path):
    out = tmp_path / "r.json"
    run("kernel_m2_ones", out)
    report = json.loads(out.read_text())
    blocks = report["result"]["blocks"]
    for s in range(2):
        for t in range(2):
            assert np.allclose(_matrix(blocks[s][t]), [[1.0]])
    assert report["result"]["positive_definite"] is True


def test_report_values_functional(tmp_path):
    out = tmp_path / "r.json"
    run("functional_m2", out)
    report = json.loads(out.read_text())
    assert np.allclose(_vector(report["result"]["f_n"]), [1, 0, 0, 0])
    assert report["result"]["hilbert_bound"] == 1.0
    assert report["result"]["rank"] == 2

    run("functional_m2_fmax", out)
    report = json.loads(out.read_text())
    assert np.allclose(_vector(report["result"]["f_max"]), [1, 0, 0, 1], atol=1e-9)


def test_report_round_trip_is_exact(tmp_path):
    out = tmp_path / "r.json"
    run("extend_bounded_3i", out)
    report = json.loads(out.read_text())
    rebuilt = cli._grid(_matrix(report["result"]["a_max"])).tolist()
    assert rebuilt == report["result"]["a_max"]


def test_seed_flag_changes_samples_deterministically(tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    out_c = tmp_path / "c.json"
    run("extend_bounded_3i", out_a, extra=["--seed", "5"])
    run("extend_bounded_3i", out_b, extra=["--seed", "5"])
    run("extend_bounded_3i", out_c, extra=["--seed", "6"])
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_bytes() != out_c.read_bytes()


def test_tolerance_profile_env(tmp_path, monkeypatch):
    monkeypatch.setenv("KVN_TOL_PROFILE", "strict")
    out = tmp_path / "r.json"
    assert run("extend_running2", out) == 0
    report = json.loads(out.read_text())
    assert report["result"]["norm"] == 2.0
    monkeypatch.setenv("KVN_TOL_PROFILE", "bogus")
    assert run("extend_running2", out) == 1


def test_tolerance_flags_override(tmp_path):
    out = tmp_path / "r.json"
    assert run("check_running2", out, extra=["--tol-cmp", "1e-6"]) == 0
    assert run("check_running2", out, extra=["--tol-cmp", "2.0"]) == 1


def test_missing_file_and_bad_schema(tmp_path):
    out = tmp_path / "r.json"
    assert cli.main(["check", str(tmp_path / "nope.json"), "--out", str(out)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": "99", "kind": "partial_operator", "payload": {}}))
    assert cli.main(["check", str(bad), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["status"] == "invalid_input"
    wrong_kind = tmp_path / "wrong.json"
    wrong_kind.write_text(
        json.dumps({"schema_version": "1", "kind": "schwarz_problem", "payload": {}})
    )
    assert cli.main(["check", str(wrong_kind), "--out", str(out)]) == 1
    # JSON true is not the number 1
    boolean = json.loads((FIXTURES / "check_running2.json").read_text())
    boolean["payload"]["action"][0][0] = True
    bool_path = tmp_path / "bool.json"
    bool_path.write_text(json.dumps(boolean))
    assert cli.main(["check", str(bool_path), "--out", str(out)]) == 1
    assert json.loads(out.read_text())["status"] == "invalid_input"
    bad.write_text("[1]")
    assert cli.main(["check", str(bad), "--out", str(out)]) == 1
    assert json.loads(out.read_text())["diagnostics"] == ["problem file must contain a JSON object"]


@pytest.mark.parametrize(
    "name, path",
    [
        ("complete_identity", ("a11",)),
        ("extend_bounded_3i", ("bound",)),
        ("commutation_diag", ("b",)),
        ("commutation_diag", ("c",)),
        ("extend_bounded_3i", ("partial_operator", "dim")),
    ],
)
def test_missing_field_is_invalid_input(name, path, tmp_path):
    problem = json.loads((FIXTURES / f"{name}.json").read_text())
    holder = problem["payload"]
    for key in path[:-1]:
        holder = holder[key]
    del holder[path[-1]]
    src = tmp_path / "problem.json"
    src.write_text(json.dumps(problem))
    out = tmp_path / "r.json"
    assert cli.main([CORPUS[name][0], str(src), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["status"] == "invalid_input"
    assert report["diagnostics"] == [f"missing field {path[-1]!r}"]


def test_stdout_when_no_out_flag(capsys):
    code = cli.main(["check", str(FIXTURES / "check_running2.json")])
    assert code == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["status"] == "ok"


def test_not_extendible_reports_carry_witness(tmp_path):
    out = tmp_path / "r.json"
    for name in ("check_halmos", "complete_halmos", "commutation_not_invariant",
                 "extend_bound_too_small"):
        run(name, out)
        report = json.loads(out.read_text())
        assert report["status"] == "not_extendible"
        assert "witness" in report["result"]


# 1000 empty rows: a 4 KB file whose structure tensor would take 15 GiB
FUNCTIONAL_EMPTY_ROWS = {
    **json.loads((FIXTURES / "functional_m2.json").read_text())["payload"],
    "dim": 1000,
    "mult": [[]] * 1000,
}


@pytest.mark.parametrize(
    "name, path, value, message",
    [
        ("check_running2", ("payload", "dim"), [2], "payload.dim: expected an integer"),
        ("check_running2", ("payload", "dim"), None, "payload.dim: expected an integer"),
        ("check_running2", ("seed",), [1], "seed: expected an integer"),
        ("check_running2", ("tolerances",), {"cmp_tol": [1]},
         "tolerances.cmp_tol: expected a number"),
        ("extend_bounded_3i", ("payload", "sample_count"), [3],
         "payload.sample_count: expected an integer"),
        # integer literals of 401 digits, beyond the float range
        ("check_running2", ("tolerances",), {"cmp_tol": 10**400},
         "tolerances.cmp_tol: number out of range"),
        ("check_running2", ("payload", "action", 0, 0, 0), 10**400,
         "payload.action: number out of range"),
        ("check_running2", ("payload", "dim"), 0, "payload.dim: expected an integer from 1 to 1024"),
        ("check_running2", ("payload", "dim"), -1,
         "payload.dim: expected an integer from 1 to 1024"),
        ("extend_running2", ("payload", "dim"), 100000,
         "payload.dim: expected an integer from 1 to 1024"),
        ("extend_running2", ("payload", "dim"), 1025,
         "payload.dim: expected an integer from 1 to 1024"),
        ("kernel_m2_ones", ("payload", "set_size"), 100000,
         "payload.set_size: expected an integer from 1 to 1024"),
        ("kernel_m2_ones", ("payload", "fiber_dim"), 513,
         "payload.fiber_dim: expected an integer from 1 to 512"),
        ("functional_m2", ("payload",), FUNCTIONAL_EMPTY_ROWS,
         "payload.mult: expected m lists of m vectors"),
        ("extend_bounded_3i", ("payload", "sample_count"), -1,
         "payload.sample_count: expected an integer from 0 to 1000"),
        ("extend_bounded_3i", ("payload", "sample_count"), 1001,
         "payload.sample_count: expected an integer from 0 to 1000"),
        ("schwarz_diag", ("payload", "iterations"), -1,
         "payload.iterations: expected an integer from 0 to 100000"),
        ("schwarz_diag", ("payload", "iterations"), 100001,
         "payload.iterations: expected an integer from 0 to 100000"),
        ("check_running2", ("tolerances",), [1e-8], "tolerances: expected an object"),
        ("check_running2", ("tolerances",), {"cmp": 1e-8}, "tolerances: unknown key 'cmp'"),
        ("extend_bounded_3i", ("payload", "partial_operator"), [1],
         "payload.partial_operator: expected an object"),
        ("check_running2", ("payload", "dim"), 3, "payload: domain_basis must have 3 rows"),
        ("check_running2", ("payload", "action"), 1, "payload.action: expected a list of rows"),
        ("complete_halmos", ("payload", "a21"), [[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
         "payload.a21: ragged rows"),
        ("schwarz_diag", ("payload", "operators"), {}, "payload: operators and vectors must be lists"),
        ("check_running2", ("payload",), [1], "payload must be an object"),
        # D = e1, Ad = (1, 1)^T and the bound [[inf or nan, 0], [0, 3]]
        ("extend_bounded_3i", ("payload", "bound", 0, 0), math.inf,
         "bound contains non-finite entries"),
        ("extend_bounded_3i", ("payload", "bound", 0, 0), math.nan,
         "bound contains non-finite entries"),
    ],
    ids=["dim-list", "dim-null", "seed-list", "tolerance-list", "sample-count-list",
         "tolerance-401-digits", "entry-401-digits", "dim-0", "dim-negative", "dim-over-cap", "dim-one-over-cap",
         "set-size-over-cap", "set-size-times-fiber-dim-over-cap", "functional-empty-mult-rows",
         "sample-count-negative", "sample-count-over-cap", "iterations-negative",
         "iterations-over-cap", "tolerances-not-object", "tolerance-unknown-key",
         "partial-operator-not-object", "domain-basis-rows-not-dim", "action-not-list",
         "a21-row-with-wrong-column-count", "schwarz-operators-not-list", "payload-not-object",
         "bound-infinite", "bound-nan"],
)
def test_malformed_field_is_invalid_input(name, path, value, message, tmp_path):
    problem = json.loads((FIXTURES / f"{name}.json").read_text())
    holder = problem
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    src = tmp_path / "problem.json"
    src.write_text(json.dumps(problem))
    out = tmp_path / "r.json"
    assert cli.main([CORPUS[name][0], str(src), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["status"] == "invalid_input"
    assert report["diagnostics"] == [message]


@pytest.mark.parametrize(
    "command, problem",
    [
        ("extend", {"kind": "partial_operator",
                    "payload": {"dim": 100000, "domain_basis": [], "action": []}}),
        ("kernel", {"kind": "kernel_problem",
                    "payload": {"set_size": 100000, "fiber_dim": 1,
                                "domain_basis": [], "action": []}}),
        ("functional", {"kind": "star_algebra_problem", "payload": FUNCTIONAL_EMPTY_ROWS}),
    ],
    ids=["extend", "kernel", "functional"],
)
def test_oversized_input_is_rejected_before_allocation(command, problem, tmp_path):
    src = tmp_path / "problem.json"
    src.write_text(json.dumps({"schema_version": "1", **problem}))
    out = tmp_path / "r.json"
    tracemalloc.start()
    try:
        code = cli.main([command, str(src), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert json.loads(out.read_text())["status"] == "invalid_input"
    assert peak < 4 * 2**20


@pytest.mark.parametrize(
    "content",
    [
        b'{"schema_version": "1", "seed": 1' + b"0" * 5000 + b"}",  # beyond int's digit limit
        b'{"schema_version": "\xff"}',  # not UTF-8
    ],
    ids=["5001-digits", "not-utf8"],
)
def test_unreadable_problem_file_is_invalid_input(content, tmp_path):
    src = tmp_path / "problem.json"
    src.write_bytes(content)
    out = tmp_path / "r.json"
    assert cli.main(["check", str(src), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["status"] == "invalid_input"
    assert report["diagnostics"][0].startswith("cannot read problem file: ")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the products overflow
def test_check_whose_hilbert_bound_overflows_is_invalid_input(tmp_path):
    problem = {
        "schema_version": "1",
        "kind": "partial_operator",
        "payload": {
            "dim": 2,
            "domain_basis": [[[1e-301, 0.0]], [[0.0, 0.0]]],
            "action": [[[1e150, 0.0]], [[0.0, 0.0]]],
        },
    }
    src = tmp_path / "problem.json"
    src.write_text(json.dumps(problem))
    out = tmp_path / "r.json"
    assert cli.main(["check", str(src), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert (report["status"], report["result"]) == ("invalid_input", {})
    assert report["diagnostics"] == ["Hilbert bound: j† j overflows the float range"]


def test_result_out_of_float_range_is_invalid_input(tmp_path):
    # D = 1e-200 e_1, Ad = 1e200 e_1: a_n = Ad G^+ Ad† has the entry 1e400
    problem = {
        "schema_version": "1",
        "kind": "partial_operator",
        "payload": {
            "dim": 2,
            "domain_basis": [[[1e-200, 0.0]], [[0.0, 0.0]]],
            "action": [[[1e200, 0.0]], [[0.0, 0.0]]],
        },
    }
    src = tmp_path / "problem.json"
    src.write_text(json.dumps(problem))
    out = tmp_path / "r.json"
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(["extend", str(src), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["status"] == "invalid_input"
    assert report["result"] == {}
    assert report["diagnostics"][0] == "minimal extension a_n = Ad G+ Ad† overflows the float range"


def test_a_result_json_cannot_write_is_invalid_input(monkeypatch, tmp_path, capsys):
    def runner(payload, cfg, seed, kind):
        return "ok", {"gram": cli._grid([[math.inf, 1.0]])}

    monkeypatch.setitem(cli._COMMANDS, "check", (runner, ("partial_operator",)))
    out = tmp_path / "r.json"
    assert run("check_running2", out) == 1
    assert cli.main(["check", str(FIXTURES / "check_running2.json")]) == 1
    printed = capsys.readouterr().out
    assert printed == out.read_text()
    report = json.loads(printed)
    assert (report["status"], report["result"]) == ("invalid_input", {})
    assert report["diagnostics"] == [
        "result is not representable in JSON: Out of range float values are not JSON compliant"
    ]


def test_schwarz_whose_gap_overflows_is_invalid_input(tmp_path):
    problem = json.loads((FIXTURES / "schwarz_diag.json").read_text())
    problem["payload"]["vectors"] = [[[1e160, 0.0], [1e160, 0.0]]]
    src = tmp_path / "problem.json"
    src.write_text(json.dumps(problem))
    out = tmp_path / "r.json"
    assert cli.main(["schwarz", str(src), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert (report["status"], report["result"]) == ("invalid_input", {})
    assert report["diagnostics"] == [
        "left side ||sum_j A_j x_j||^2 overflows the float range"
    ]


@pytest.mark.parametrize(
    "field, entry, name",
    [("mult", (0, 0, 0, 0), "structure tensor"), ("invol", (0, 0, 0), "involution")],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_structure_constants_are_invalid_input(field, entry, name, bad, tmp_path):
    problem = json.loads((FIXTURES / "functional_m2.json").read_text())
    holder = problem["payload"][field]
    for key in entry[:-1]:
        holder = holder[key]
    holder[entry[-1]] = bad
    src = tmp_path / "problem.json"
    src.write_text(json.dumps(problem))
    out = tmp_path / "r.json"
    assert cli.main(["functional", str(src), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert (report["status"], report["result"]) == ("invalid_input", {})
    assert report["diagnostics"] == [f"{name} contains non-finite entries"]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_golden_report_over_a_longer_file_is_exact(name, tmp_path):
    # the report is written over the old bytes and the rest cut off
    golden = (GOLDEN / f"{name}.report.json").read_bytes()
    out = tmp_path / "report.json"
    out.write_bytes(b"\xff" * (len(golden) + 4096))
    assert run(name, out) == CORPUS[name][1]
    assert out.read_bytes() == golden


def test_report_keeps_the_inode_and_a_new_one_gets_the_open_w_mode(tmp_path):
    out = tmp_path / "report.json"
    out.write_bytes(b"old")
    out.chmod(0o640)
    inode = out.stat().st_ino
    assert run("extend_running2", out) == 0
    assert (out.stat().st_ino, out.stat().st_mode & 0o7777) == (inode, 0o640)
    # a new file: open(path, "w") creates it 0o666 less the umask
    reference = tmp_path / "reference.json"
    with open(reference, "w"):
        pass
    fresh = tmp_path / "fresh.json"
    assert run("extend_running2", fresh) == 0
    assert fresh.stat().st_mode == reference.stat().st_mode
    assert fresh.read_bytes() == (GOLDEN / "extend_running2.report.json").read_bytes()


def test_report_through_a_symlink_writes_the_target(tmp_path):
    target = tmp_path / "target.json"
    target.write_bytes(b"x" * 10_000)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert run("check_running2", link) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == (GOLDEN / "check_running2.report.json").read_bytes()


@pytest.mark.parametrize("name", ["check_running2", "check_invalid_gram", "check_halmos"])
def test_report_to_dev_null_exits_with_the_commands_code(name, capsys):
    assert run(name, pathlib.Path(os.devnull)) == CORPUS[name][1]
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("where", ["missing/r.json", "."], ids=["missing-dir", "a-directory"])
def test_unwritable_report_file_is_invalid_input(where, tmp_path, capsys):
    out = tmp_path / where
    assert run("check_running2", out) == 1
    report = json.loads(capsys.readouterr().out)
    assert (report["status"], report["result"]) == ("invalid_input", {})
    assert report["diagnostics"][0].startswith("cannot write report file: [Errno ")
    assert report["diagnostics"][0].endswith(f"{str(out)!r}")
    assert not (tmp_path / "missing").exists()
