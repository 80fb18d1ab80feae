"""The CLI's grid writer and grid reader against the plain json/element-wise
definitions they replace."""

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvnext import cli

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-320, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e16
]
floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS))


@st.composite
def grids(draw):
    """Float64 [re, im] grids, the form runners put into reports, empty ones included."""
    shape = draw(
        st.one_of(
            st.sampled_from([(0, 0, 2), (3, 0, 2), (1, 1, 2), (0, 2)]),
            st.lists(st.integers(0, 3), min_size=0, max_size=3).map(lambda s: (*s, 2)),
        )
    )
    size = int(np.prod(shape))
    values = draw(st.lists(floats, min_size=size, max_size=size))
    return np.array(values, dtype=np.float64).reshape(shape)


texts = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["inf", "\x00", "\x00\x00", '"\x00"', "ä → ∞", " "]),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**400), 10**400),
    floats,
    texts,
)
reports = st.recursive(
    st.one_of(scalars, grids()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(texts, children, max_size=4),
    ),
    max_leaves=12,
)


def as_lists(obj):
    """The report with every grid as the nested lists json writes it from."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: as_lists(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [as_lists(v) for v in obj]
    return obj


def reference_text(report) -> str:
    return json.dumps(as_lists(report), sort_keys=True, indent=2, allow_nan=False) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.dictionaries(texts, reports, max_size=5))
def test_emitter_bytes_equal_json_dumps(report):
    assert cli._render(report) == reference_text(report)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(grids(), min_size=1, max_size=3), texts)
def test_emitter_writes_sample_lists_and_diagnostics(samples, diagnostic):
    report = cli._report("ok", "extend", {"samples": samples, "a_n": samples[0]}, [diagnostic])
    assert cli._render(report) == reference_text(report)


def test_emitter_keeps_strings_that_look_like_placeholders():
    grid = cli._grid(np.array([[1.0 - 0.5j]]))
    report = {"\x00": grid, "a": ["\x00", grid, "\x00\x00", {"\x00": "\x00"}], "z": -0.0}
    assert cli._render(report) == reference_text(report)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_emitter_rejects_non_finite_grids(bad):
    grid = cli._grid(np.array([[1.0, complex(0.0, bad)]]))
    with pytest.raises(ValueError, match="Out of range float values"):
        cli._render({"result": {"a_n": grid}})


# --- the reader ----------------------------------------------------------


def elementwise(obj, axes: int) -> np.ndarray:
    """The per-element read: each leaf a bare real or an [re, im] pair."""
    def scalar(e):
        return complex(e[0], e[1]) if isinstance(e, list) else complex(e)

    def walk(o, depth):
        return [walk(v, depth - 1) for v in o] if depth else scalar(o)

    return np.array(walk(obj, axes), dtype=np.complex128)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


numbers = st.one_of(floats, st.integers(-(2**80), 2**80))


@st.composite
def json_grids(draw, axes: int, mixed: bool):
    """Nested lists ``axes`` deep of [re, im] pairs, of bare reals, or
    (``mixed``) of both."""
    shape = draw(st.lists(st.integers(1, 4), min_size=axes, max_size=axes))
    kind = draw(st.sampled_from(["pair", "real"]))

    def leaf():
        pair = draw(st.booleans()) if mixed else kind == "pair"
        return [draw(numbers), draw(numbers)] if pair else draw(numbers)

    def build(dims):
        return [build(dims[1:]) for _ in range(dims[0])] if dims else leaf()

    return build(shape)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(json_grids(2, mixed=False))
def test_fast_matrix_read_equals_elementwise_read(obj):
    assert same_bits(cli.matrix_in(obj, "m"), elementwise(obj, 2))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(json_grids(1, mixed=False))
def test_fast_vector_read_equals_elementwise_read(obj):
    assert same_bits(cli.vector_in(obj, "v"), elementwise(obj, 1))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(json_grids(2, mixed=True), json_grids(1, mixed=True))
def test_mixed_real_and_pair_grids_are_read(matrix, vector):
    assert same_bits(cli.matrix_in(matrix, "m"), elementwise(matrix, 2))
    assert same_bits(cli.vector_in(vector, "v"), elementwise(vector, 1))


def test_empty_grids_keep_their_shapes():
    assert cli.matrix_in([], "m").shape == (0, 0)
    assert cli.matrix_in([], "m", cols=3).shape == (0, 3)
    assert cli.matrix_in([[], []], "m").shape == (2, 0)
    assert cli.vector_in([], "v").shape == (0,)
    with pytest.raises(cli.CliInputError, match="m: ragged rows"):
        cli.matrix_in([[], []], "m", cols=1)


NON_NUMBERS = [True, "1.5", None]


def leaf_paths(obj, prefix=()):
    if isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from leaf_paths(v, prefix + (i,))
    else:
        yield prefix


def replaced(obj, path, value):
    obj = json.loads(json.dumps(obj))
    holder = obj
    for i in path[:-1]:
        holder = holder[i]
    holder[path[-1]] = value
    return obj


def first_middle_last(obj):
    paths = list(leaf_paths(obj))
    return [paths[0], paths[len(paths) // 2], paths[-1]]


MATRIX = cli._grid(np.arange(6).reshape(2, 3) * (1 - 1j)).tolist()
VECTOR = cli._grid(np.arange(3) * (1 + 2j)).tolist()


@pytest.mark.parametrize("bad", NON_NUMBERS)
@pytest.mark.parametrize("where", range(3))
def test_matrix_and_vector_reject_non_numbers(bad, where):
    for read, obj in ((cli.matrix_in, MATRIX), (cli.vector_in, VECTOR)):
        wrong = replaced(obj, first_middle_last(obj)[where], bad)
        with pytest.raises(cli.CliInputError) as err:
            read(wrong, "payload.x")
        assert str(err.value) == "payload.x: expected a number or [re, im] pair"


@pytest.mark.parametrize("bad", NON_NUMBERS)
@pytest.mark.parametrize("where", range(3))
def test_structure_tensor_rejects_non_numbers(bad, where, tmp_path):
    problem = json.loads((FIXTURES / "functional_m2.json").read_text())
    path = first_middle_last(problem["payload"]["mult"])[where]
    problem["payload"]["mult"] = replaced(problem["payload"]["mult"], path, bad)
    src = tmp_path / "p.json"
    src.write_text(json.dumps(problem))
    out = tmp_path / "r.json"
    assert cli.main(["functional", str(src), "--out", str(out)]) == 1
    i, j = path[:2]
    assert json.loads(out.read_text())["diagnostics"] == [
        f"payload.mult[{i}][{j}]: expected a number or [re, im] pair"
    ]


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda mult: mult[:-1], "payload.mult: expected m lists of m vectors"),
        (lambda mult: [mult[0][:-1]] + mult[1:], "payload.mult: expected m lists of m vectors"),
        (lambda mult: {"a": 1}, "payload.mult: expected m lists of m vectors"),
        (
            lambda mult: [[mult[0][0][:-1]] + mult[0][1:]] + mult[1:],
            "payload.mult[0][0]: expected length 4",
        ),
        (
            lambda mult: mult[:3] + [mult[3][:3] + [mult[3][3] + [[0.0, 0.0]]]],
            "payload.mult[3][3]: expected length 4",
        ),
        (
            lambda mult: [[mult[0][0], 5] + mult[0][2:]] + mult[1:],
            "payload.mult[0][1]: expected a list",
        ),
    ],
)
def test_structure_tensor_shape_errors_keep_their_messages(mutate, message, tmp_path):
    problem = json.loads((FIXTURES / "functional_m2.json").read_text())
    problem["payload"]["mult"] = mutate(problem["payload"]["mult"])
    src = tmp_path / "p.json"
    src.write_text(json.dumps(problem))
    out = tmp_path / "r.json"
    assert cli.main(["functional", str(src), "--out", str(out)]) == 1
    assert json.loads(out.read_text())["diagnostics"] == [message]


def test_structure_tensor_with_bare_reals_is_read(tmp_path):
    problem = json.loads((FIXTURES / "functional_m2.json").read_text())
    mult = problem["payload"]["mult"]
    problem["payload"]["mult"] = [[[v[0] for v in entry] for entry in row] for row in mult]
    mixed = json.loads(json.dumps(mult))
    mixed[1][2][3] = mixed[1][2][3][0]
    reports = []
    for i, tensor in enumerate((mult, problem["payload"]["mult"], mixed)):
        problem["payload"]["mult"] = tensor
        src = tmp_path / f"p{i}.json"
        src.write_text(json.dumps(problem))
        out = tmp_path / f"r{i}.json"
        assert cli.main(["functional", str(src), "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]
