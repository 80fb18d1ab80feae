import dataclasses
import itertools
import json
import math
import pathlib
import warnings

import numpy as np
import pytest

from kvnext import cli, star_algebra
from kvnext import numcore as nc
from kvnext import (
    LeftIdeal,
    StarAlgebra,
    extend_functional,
    extend_functional_unital,
    f_max,
    fn_on_positive,
    gns,
    induced_operator,
    is_admissible,
    is_hilbert_bounded,
    is_representable,
    validate_algebra,
)
from kvnext.errors import (
    AssociativityFail,
    BoundNotDominating,
    InvolutionFail,
    KvnError,
    NonPsdGram,
    NoUnit,
    NotAdmissible,
    NotHilbertBounded,
    NotRepresentable,
    RankDeficientDomain,
    ResultOutOfRange,
    ShapeMismatch,
    UnitFail,
)
from kvnext.numcore import DEFAULT_TOL
from kvnext.star_algebra import functional_gram, functional_leq, whole_algebra_ideal
from util_gen import (
    delta_algebra,
    fn_sup_oracle,
    m2_algebra,
    m2_first_column_ideal,
    nilpotent_algebra,
    rng_for,
    rotated_commutative,
    rotated_ideal,
)

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

M2 = m2_algebra()
M2_IDEAL = m2_first_column_ideal()
M2_F = np.array([1.0, 0.0], dtype=complex)  # f(a E11 + c E21) = a
TRACE = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex)


def z2_group_algebra() -> StarAlgebra:
    mult = np.zeros((2, 2, 2), dtype=complex)
    mult[0, 0, 0] = mult[0, 1, 1] = mult[1, 0, 1] = mult[1, 1, 0] = 1.0
    return StarAlgebra(
        mult=mult, invol=np.eye(2, dtype=complex), unit=np.array([1.0, 0.0])
    )


def random_m2_functional(rng):
    """f(a E11 + c E21) = mu a + nu c with mu > 0: always extendible."""
    mu = float(rng.uniform(0.5, 2.0))
    nu = complex(rng.standard_normal(), rng.standard_normal())
    return np.array([mu, nu], dtype=complex)


def test_validate_algebra_examples():
    assert validate_algebra(M2, M2_IDEAL).ok
    assert validate_algebra(z2_group_algebra(), whole_algebra_ideal(z2_group_algebra())).ok

    broken = delta_algebra(2).mult.copy()
    broken[0, 0, 1] = 1.0  # b0 b0 = b0 + b1 breaks associativity
    bad = StarAlgebra(mult=broken, invol=np.eye(2, dtype=complex))
    report = validate_algebra(bad, whole_algebra_ideal(bad))
    assert "associativity" in report.failures
    with pytest.raises(AssociativityFail):
        report.raise_if_invalid()


@pytest.mark.parametrize("field, name", [("mult", "structure tensor"), ("invol", "involution")])
@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_non_finite_structure_constants_are_rejected_by_name(field, name, bad):
    parts = {"mult": M2.mult.copy(), "invol": M2.invol.copy(), "unit": M2.unit}
    parts[field].flat[1] = bad
    with pytest.raises(ShapeMismatch, match=f"^{name} contains non-finite entries$"):
        StarAlgebra(**parts)


def _cyclic_involution_algebra() -> StarAlgebra:
    """Functions on 3 points with f* = conj(f) shifted by one point: the map
    is antimultiplicative, but applying it twice shifts by two points."""
    return StarAlgebra(
        mult=delta_algebra(3).mult,
        invol=np.roll(np.eye(3, dtype=complex), 1, axis=1),
        unit=np.ones(3),
    )


@pytest.mark.parametrize(
    "name, algebra, ideal, error",
    [
        (
            "involution_not_involutive",
            _cyclic_involution_algebra(),
            LeftIdeal(np.eye(3, dtype=complex)),
            InvolutionFail,
        ),
        (
            # e_1* = i e_1 is involutive, but (e_1 e_1)* = i e_1 != e_1* e_1* = -e_1
            "involution_not_antimultiplicative",
            StarAlgebra(mult=delta_algebra(2).mult, invol=np.diag([1.0, 1j])),
            LeftIdeal(np.eye(2, dtype=complex)),
            InvolutionFail,
        ),
        (
            "unit",
            StarAlgebra(mult=M2.mult, invol=M2.invol, unit=np.array([1.0, 0, 0, 0])),
            M2_IDEAL,
            UnitFail,
        ),
        (
            "ideal_rank",
            M2,
            LeftIdeal(np.array([[1.0, 1.0], [0, 0], [0, 0], [0, 0]], dtype=complex)),
            RankDeficientDomain,
        ),
        (
            # five vectors in the 4-dimensional M_2
            "ideal_rank",
            M2,
            LeftIdeal(np.hstack([np.eye(4), np.ones((4, 1))]).astype(complex)),
            RankDeficientDomain,
        ),
    ],
)
def test_each_validation_failure_is_named(name, algebra, ideal, error):
    report = validate_algebra(algebra, ideal)
    assert report.failures == (name,)
    with pytest.raises(error):
        report.raise_if_invalid()


def matrix_algebra(k: int) -> tuple[StarAlgebra, LeftIdeal]:
    """M_k in the matrix-unit basis E_ab (index a k + b), and its first-column ideal."""
    m = k * k
    mult = np.zeros((m, m, m), dtype=complex)
    invol = np.zeros((m, m), dtype=complex)
    for a, b in itertools.product(range(k), repeat=2):
        invol[a * k + b, b * k + a] = 1.0
        for c in range(k):
            mult[a * k + b, b * k + c, a * k + c] = 1.0
    ideal = np.zeros((m, k), dtype=complex)
    ideal[np.arange(k) * k, np.arange(k)] = 1.0
    return StarAlgebra(mult=mult, invol=invol, unit=np.eye(k).reshape(-1)), LeftIdeal(ideal)


def loop_validation(algebra, ideal, cfg=DEFAULT_TOL):
    """Reference check, one basis tuple at a time: (failure names, L)."""
    m, tol = algebra.m, cfg.cmp_tol
    e = np.eye(m, dtype=complex)
    mul, star = algebra.multiply, algebra.star

    def close(x, y):
        return np.linalg.norm(x - y) <= tol * (1 + np.linalg.norm(x) + np.linalg.norm(y))

    failures = []
    if not all(
        close(mul(mul(e[i], e[j]), e[k]), mul(e[i], mul(e[j], e[k])))
        for i, j, k in itertools.product(range(m), repeat=3)
    ):
        failures.append("associativity")
    if not all(close(star(star(e[i])), e[i]) for i in range(m)):
        failures.append("involution_not_involutive")
    if not all(
        close(star(mul(e[i], e[j])), mul(star(e[j]), star(e[i])))
        for i, j in itertools.product(range(m), repeat=2)
    ):
        failures.append("involution_not_antimultiplicative")
    u = algebra.unit
    if u is not None and not all(
        close(mul(u, e[i]), e[i]) and close(mul(e[i], u), e[i]) for i in range(m)
    ):
        failures.append("unit")
    sv = np.linalg.svd(ideal.basis, compute_uv=False)
    if sv.min() <= cfg.rank_rel_eps * sv.max():
        return tuple(failures + ["ideal_rank"]), None
    left = np.zeros((m, ideal.p, ideal.p), dtype=complex)
    closed = True
    for i, l in itertools.product(range(m), range(ideal.p)):
        prod = mul(e[i], ideal.basis[:, l])
        left[i][:, l] = np.linalg.lstsq(ideal.basis, prod, rcond=None)[0]
        closed &= bool(
            np.linalg.norm(ideal.basis @ left[i][:, l] - prod)
            <= tol * (1 + np.linalg.norm(prod))
        )
    if not closed:
        failures.append("ideal_closure")
    return tuple(failures), left


def loop_action(algebra, ideal, w):
    """Reference induced action (f(b_k* a_j))_kj, one solve per entry."""
    e = np.eye(algebra.m, dtype=complex)
    action = np.zeros((algebra.m, ideal.p), dtype=complex)
    for k, j in itertools.product(range(algebra.m), range(ideal.p)):
        prod = algebra.multiply(algebra.star(e[k]), ideal.basis[:, j])
        action[k, j] = np.linalg.lstsq(ideal.basis, prod, rcond=None)[0] @ w
    return action


def _perturbed(algebra, ideal, part, size, rng):
    def noise(shape):
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return size * z / np.sqrt(2)

    fields = {"mult": algebra.mult, "invol": algebra.invol, "unit": algebra.unit}
    basis = ideal.basis
    if part == "ideal":
        basis = basis + noise(basis.shape)
    else:
        fields[part] = fields[part] + noise(fields[part].shape)
    return StarAlgebra(**fields), LeftIdeal(basis)


@pytest.mark.parametrize("family", ["points", "matrix"])
def test_batched_validation_matches_loop_oracle(family):
    """Verdict, L and induced action agree with the loop reference on random
    algebras, unperturbed and perturbed by 0.1, 1 and 10 times cmp_tol."""
    rng = rng_for(131)
    cases = []
    for k in (2, 3, 4, 5) if family == "points" else (2, 3):
        if family == "points":
            algebra, _, data = rotated_commutative(rng, k)
            support = sorted(int(s) for s in rng.choice(k, size=max(1, k // 2), replace=False))
            ideal = rotated_ideal(data["transform"], support)
            w = rng.uniform(0.5, 2.0, size=len(support)).astype(complex)
        else:
            algebra, ideal = matrix_algebra(k)
            z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            w = ideal.basis.T @ (z @ z.conj().T + np.eye(k)).T.reshape(-1)
        cases.append((algebra, ideal, w))
    targets = {
        "mult": "associativity",
        "invol": "involution_not_involutive",
        "unit": "unit",
        "ideal": "ideal_closure",
    }
    for algebra, ideal, w in cases:
        trials = [(algebra, ideal, 0.0, None)]
        for part, scale in itertools.product(targets, (0.1, 1.0, 10.0)):
            size = scale * DEFAULT_TOL.cmp_tol
            trials.append((*_perturbed(algebra, ideal, part, size, rng), scale, part))
        for a, i, scale, part in trials:
            report = validate_algebra(a, i)
            failures, left = loop_validation(a, i)
            assert report.failures == failures
            if scale == 10.0:
                assert targets[part] in failures
            if report.ok:
                assert np.max(np.abs(report.left_mult - left)) <= 1e-12
            if scale < 1.0:
                assert report.ok
                action = induced_operator(a, i, w).action
                assert np.max(np.abs(action - loop_action(a, i, w))) <= 1e-12 * (
                    1 + np.max(np.abs(w))
                )


def test_functional_run_validates_once_and_solves_once(lapack_calls, monkeypatch, tmp_path):
    validations = []
    validate = star_algebra.validate_algebra

    def counted(*args):
        validations.append(args)
        return validate(*args)

    monkeypatch.setattr(star_algebra, "validate_algebra", counted)
    argv = ["functional", str(FIXTURES / "functional_m2_fmax.json"), "--out", str(tmp_path / "r.json")]
    assert cli.main(argv) == 0
    assert len(validations) == 1
    # the given ideal needs one solve; f_max's whole-algebra ideal needs none
    assert lapack_calls["lstsq"] == 1
    # one Gram factorization per distinct functional: f, the shifted
    # functional g|I - f, g and g - f_N (f_max equals g here)
    assert lapack_calls["eigh"] <= 4


def test_functional_run_decides_each_functional_once(lapack_calls, monkeypatch, tmp_path):
    ranks = []
    rank = nc.full_column_rank

    def counted(*args):
        ranks.append(args)
        return rank(*args)

    monkeypatch.setattr(nc, "full_column_rank", counted)

    def run(name):
        lapack_calls.clear()
        ranks.clear()
        argv = ["functional", str(FIXTURES / f"{name}.json"), "--out", str(tmp_path / "r.json")]
        assert cli.main(argv) == 0
        # validation decides the ideal basis; no induced operator repeats it
        assert len(ranks) == 1
        return lapack_calls

    calls = run("functional_m2")
    # the rank certificate, and one admissibility eigensolve of full-rank G
    assert calls["cholesky"] == 1 and calls["eigvalsh"] == 1
    calls = run("functional_m2_fmax")
    # f's lambdas for the report, and the kernel tests of the two forms with
    # a kernel: the shifted functional g|I - f = 0 and g - f_N; the
    # representability checks form no lambdas.  g >= f_N is decided by the
    # validation of g - f_N's record, so the one Cholesky is the rank certificate
    assert calls["cholesky"] == 1 and calls["eigvalsh"] == 3 and calls["eigh"] <= 4
    calls = run("functional_m3_fmax")
    assert calls["cholesky"] == 1 and calls["eigvalsh"] == 1 and calls["eigh"] <= 5


def _statement_cases():
    """(algebra, ideal, f, g) over M_2, M_3, point algebras in a rotated
    basis, the nilpotent algebra and rank-deficient functionals, with the
    failing functionals and bounds beside the good ones."""
    rng = rng_for(151)
    cases = [
        (M2, M2_IDEAL, M2_F, TRACE),
        (M2, M2_IDEAL, random_m2_functional(rng), 3.0 * TRACE),
        (M2, M2_IDEAL, np.array([-1.0, 0.0]), TRACE),  # not positive
        (M2, M2_IDEAL, np.array([1j, 0.0]), TRACE),  # form not Hermitian
        (M2, M2_IDEAL, np.ones(3), TRACE),  # wrong length
        (M2, M2_IDEAL, M2_F, np.array([0.0, 1.0, 0.0, 0.0])),  # g not representable
        (M2, M2_IDEAL, M2_F, 0.5 * TRACE),  # g does not dominate f_N
        # a vector state on the whole algebra: its form has a kernel
        (M2, whole_algebra_ideal(M2), np.array([1.0, 0, 0, 0]), TRACE),
    ]
    m3, m3_ideal = matrix_algebra(3)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = z @ z.conj().T + np.eye(3)
    cases.append((m3, m3_ideal, m3_ideal.basis.T @ rho.T.reshape(-1), (rho + np.eye(3)).T.reshape(-1)))
    for k in (3, 5):
        algebra, to_rot, data = rotated_commutative(rng, k)
        support = [0, 2]
        ideal = rotated_ideal(data["transform"], support)
        g = to_rot(rng.uniform(2.0, 3.0, size=k))
        cases.append((algebra, ideal, rng.uniform(0.5, 1.5, size=2).astype(complex), g))
        cases.append((algebra, ideal, np.array([1.0, 0.0], dtype=complex), g))  # rank-deficient
    no_unit = StarAlgebra(mult=delta_algebra(2).mult, invol=np.eye(2, dtype=complex))
    cases.append((no_unit, whole_algebra_ideal(no_unit), np.array([1.0, 2.0]), np.array([2.0, 3.0])))
    nil = nilpotent_algebra()
    nil_ideal = LeftIdeal(np.eye(3, dtype=complex)[:, 1:])
    cases.append((nil, nil_ideal, np.array([0.0, 1.0], dtype=complex), np.array([1.0, 0, 0])))
    cases.append((nil, whole_algebra_ideal(nil), np.array([1.0, 0, 0]), np.array([2.0, 0, 0])))
    return cases


_STATEMENTS = (
    "hilbert", "admissibility", "gns", "extend", "extend_unital", "f_max", "representable"
)
# statements read off the functional's record, by the attribute that holds them
_RECORD_READS = {"hilbert": "hilbert", "admissibility": "admissibility", "gns": "gns", "extend": "f_n"}


def _outcome(statement, problem, f, g):
    """What the statement returns, or the error it raises."""
    try:
        if statement in _RECORD_READS:
            return getattr(problem.record(f), _RECORD_READS[statement])
        args = (f, g) if statement == "f_max" else (f,)
        return getattr(problem, statement)(*args)
    except KvnError as exc:
        return exc


def _arrays(out):
    if isinstance(out, np.ndarray):
        return [out]
    if isinstance(out, KvnError):
        return _arrays(getattr(out, "certificate", None))
    if isinstance(out, tuple):
        return [a for x in out for a in _arrays(x)]
    if dataclasses.is_dataclass(out):
        return _arrays(tuple(getattr(out, f.name) for f in dataclasses.fields(out)))
    return []


def _bytes(out):
    if isinstance(out, KvnError):
        head = (type(out), str(out))
    elif dataclasses.is_dataclass(out):
        head = (type(out), tuple(
            repr(v) for v in (getattr(out, f.name) for f in dataclasses.fields(out))
            if not isinstance(v, (np.ndarray, tuple))
        ))
    else:
        head = (type(out), None if isinstance(out, np.ndarray) else np.float64(out).tobytes())
    return head, [(a.dtype.str, a.shape, a.tobytes()) for a in _arrays(out)]


@pytest.mark.parametrize("case", range(len(_statement_cases())))
def test_memoized_statements_match_a_fresh_problem_bit_for_bit(case):
    algebra, ideal, f, g = _statement_cases()[case]
    shared = star_algebra._Problem.validated(algebra, ideal, DEFAULT_TOL)
    # twice through, the second time in reverse, each read after the caller
    # has overwritten the values it passed
    for statement in _STATEMENTS + _STATEMENTS[::-1]:
        values = np.array(f, dtype=complex)
        got = _outcome(statement, shared, values, g)
        fresh = star_algebra._Problem.validated(algebra, ideal, DEFAULT_TOL)
        want = _outcome(statement, fresh, f, g)
        assert _bytes(got) == _bytes(want), statement
        values[...] = np.nan
    # the records: f, and the shifted functional of f_max
    assert len(shared.records) <= 2


def _admissibility_in_one_pass(rec):
    """The report as one computation: the forms, the kernel test, then the
    lambdas, whatever the verdict."""
    spec, left = rec.spec, rec.left
    gx = nc._herm(left.conj().transpose(0, 2, 1) @ spec.gram @ left)
    ok = np.ones(left.shape[0], dtype=bool)
    kernel = spec.kernel
    if kernel.shape[1]:
        top = np.maximum(np.linalg.eigvalsh(gx)[:, -1], 0.0)
        leak = np.real(np.einsum("ak,iab,bk->ik", kernel.conj(), gx, kernel))
        ok = np.all(
            nc._within(np.sqrt(np.maximum(leak, 0.0)), np.sqrt(top)[:, None], spec.cfg.cmp_tol),
            axis=1,
        )
    lambdas = np.zeros(left.shape[0])
    if spec.r:
        root_inv = spec.u / np.sqrt(spec.lam)
        ev = np.linalg.eigvalsh(nc._herm(root_inv.conj().T @ gx @ root_inv))
        lambdas = np.maximum(ev[:, -1], 0.0)
    lambdas[~ok] = math.inf
    return star_algebra.AdmissibilityReport(admissible=bool(np.all(ok)), lambdas=lambdas)


def _public_outcome(fn, *args):
    try:
        return fn(*args)
    except KvnError as exc:
        return exc


@pytest.mark.parametrize("case", range(len(_statement_cases())))
def test_verdicts_form_no_lambdas_and_reports_keep_their_bits(case, monkeypatch):
    algebra, ideal, f, g = _statement_cases()[case]
    report = _public_outcome(is_admissible, algebra, ideal, f)
    if not isinstance(report, KvnError):
        rec = star_algebra._Problem.validated(algebra, ideal, DEFAULT_TOL).record(f)
        assert _bytes(report) == _bytes(_admissibility_in_one_pass(rec))
    want = (_public_outcome(is_representable, algebra, g), _public_outcome(f_max, algebra, ideal, f, g))

    def no_lambdas(rec):
        raise AssertionError("lambda_x formed")

    monkeypatch.setattr(star_algebra._Functional, "admissibility", property(no_lambdas))
    got = (_public_outcome(is_representable, algebra, g), _public_outcome(f_max, algebra, ideal, f, g))
    assert [_bytes(x) for x in got] == [_bytes(x) for x in want]


def test_a_functional_that_does_not_descend_carries_its_lambdas(monkeypatch):
    descends = star_algebra._Functional._descends.func
    # the second basis element E12 no longer descends
    monkeypatch.setattr(
        star_algebra._Functional, "_descends", property(lambda rec: descends(rec) & (np.arange(4) != 1))
    )
    with pytest.raises(NotAdmissible) as raised:
        gns(M2, M2_IDEAL, M2_F)
    lambdas = is_admissible(M2, M2_IDEAL, M2_F).lambdas
    assert raised.value.certificate.tobytes() == lambdas.tobytes()
    assert np.isinf(lambdas).tolist() == [False, True, False, False]


def test_overflowing_admissibility_forms_raise_result_out_of_range(tmp_path):
    # M_2 in the basis 1e100 E_ab (structure constants times 1e100, the unit
    # over it) and its trace state times 1e100: G = 1e200 (tr(E_ab* E_cd)) is
    # finite and the forms L_i† G L_i reach 1e400.  The kernel witness test
    # of the induced operator still takes norms that overflow on such data
    # (ROADMAP item 4), so only the forms are read under the RuntimeWarning
    # error filter.
    algebra = StarAlgebra(mult=1e100 * M2.mult, invol=M2.invol, unit=M2.unit / 1e100)
    g = 1e100 * TRACE
    whole = whole_algebra_ideal(algebra)
    message = "^admissibility forms L_i† G L_i overflows the float range$"
    with np.errstate(over="ignore", invalid="ignore"):
        assert is_representable(algebra, g)
        rec = star_algebra._Problem.validated(algebra, whole, DEFAULT_TOL).record(g)
        assert rec.admissible and rec.hilbert.bounded
        with pytest.raises(ResultOutOfRange, match=message):
            is_admissible(algebra, whole, g)
    with pytest.raises(ResultOutOfRange, match=message):
        rec.admissibility

    def grid(x):
        return np.stack([x.real, x.imag], axis=-1).tolist()

    problem = {
        "schema_version": "1",
        "kind": "star_algebra_problem",
        "payload": {
            "dim": 4, "mult": grid(algebra.mult), "invol": grid(algebra.invol),
            "unit": grid(algebra.unit), "ideal_basis": grid(whole.basis), "functional": grid(g),
        },
    }
    src, out = tmp_path / "problem.json", tmp_path / "r.json"
    src.write_text(json.dumps(problem))
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(["functional", str(src), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert (report["status"], report["result"]) == ("invalid_input", {})
    assert report["diagnostics"] == ["admissibility forms L_i† G L_i overflows the float range"]


def test_ideal_closure_detected():
    # span{E12} is not a left ideal of M2
    basis = np.zeros((4, 1), dtype=complex)
    basis[1, 0] = 1.0
    report = validate_algebra(M2, LeftIdeal(basis))
    assert "ideal_closure" in report.failures


@pytest.mark.parametrize(
    "s",
    [
        1e100,
        pytest.param(
            1e200,
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="ROADMAP item 14: the associativity GEMMs overflow on structure constants of 1e200",
            ),
        ),
    ],
)
def test_m2_in_a_scaled_basis_validates(s):
    algebra = StarAlgebra(mult=s * M2.mult, invol=M2.invol, unit=M2.unit / s)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = validate_algebra(algebra, whole_algebra_ideal(algebra))
    assert report.failures == ()


@pytest.mark.filterwarnings("error::RuntimeWarning")  # decided, not warned
def test_validation_decides_overflowing_norms_on_rescaled_slices():
    # E11 E11 = 1.5 E11 breaks associativity, (E11 E11) E12 = 1.5 E12 against
    # E11 (E11 E12) = E12, and the unit; at scale 1e100 the triple products
    # reach 1e200, and norms that overflow must not pass the rule
    mult = M2.mult.copy()
    mult[0, 0, 0] = 1.5
    for s in (1.0, 1e100):
        bad = StarAlgebra(mult=s * mult, invol=M2.invol, unit=M2.unit / s)
        assert validate_algebra(bad, whole_algebra_ideal(bad)).failures == ("associativity", "unit")
        good = StarAlgebra(mult=s * M2.mult, invol=M2.invol, unit=M2.unit / s)
        assert validate_algebra(good, whole_algebra_ideal(good)).ok
    # C[t]/t^3 in the basis 1, t, t^2 / s: t t = s b_2, and no triple product
    # exceeds s.  At s = 1e200 a unit 1.5 must still fail: its rows, of size 1,
    # sit beside rows of 1e200, and one exponent for all rows would underflow
    # their norms to zero.  span{t}, whose products' norms overflow, must
    # still fail closure
    nil = nilpotent_algebra()
    for s in (1.0, 1e200, 1e300):
        mult = nil.mult.copy()
        mult[1, 1, 2] = s
        good = StarAlgebra(mult=mult, invol=nil.invol, unit=nil.unit)
        bad = StarAlgebra(mult=mult, invol=nil.invol, unit=1.5 * nil.unit)
        assert validate_algebra(good, whole_algebra_ideal(good)).ok
        assert validate_algebra(good, LeftIdeal(np.eye(3)[:, 1:])).ok
        assert validate_algebra(bad, whole_algebra_ideal(bad)).failures == ("unit",)
        assert validate_algebra(good, LeftIdeal(np.eye(3)[:, 1:2])).failures == ("ideal_closure",)


def test_a_subnormal_row_beside_an_overflowing_one_is_decided():
    # the 1e300 row's norm overflows, so every row is rescaled by 2^-e; for the
    # subnormal row 2^-e itself overflowed and the row failed on a NaN
    x = np.array([[1e300, 1e300, 0.0], [1e-310, 0.0, 0.0]])
    assert nc._close(x, x.copy(), 1e-10).tolist() == [True, True]


def test_an_algebra_with_a_subnormal_basis_element_names_only_associativity():
    # functions on 2 points in the basis (1e160 d0, 1e-310 d1): b0 b0 = 1e160 b0
    # and b1 b1 = 1e-310 b1.  The triple product 1e320 overflows the GEMM
    # (associativity, a known false failure); the involution laws hold
    mult = np.zeros((2, 2, 2), dtype=complex)
    mult[0, 0, 0], mult[1, 1, 1] = 1e160, 1e-310
    algebra = StarAlgebra(mult=mult, invol=np.eye(2, dtype=complex))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = validate_algebra(algebra, LeftIdeal([[1.0], [0.0]]))
    assert report.failures == ("associativity",)
    assert not [w for w in caught if "overflow encountered in ldexp" in str(w.message)]


def test_induced_operator_examples():
    zero = induced_operator(M2, M2_IDEAL, np.zeros(2))
    assert np.allclose(zero.action, 0.0)
    assert np.allclose(zero.gram(), np.zeros((2, 2)))

    op = induced_operator(M2, M2_IDEAL, M2_F)
    assert np.allclose(op.gram(), np.eye(2), atol=1e-12)

    with pytest.raises(NonPsdGram):
        induced_operator(M2, M2_IDEAL, np.array([-1.0, 0.0]))


def test_hilbert_bound_examples():
    assert is_hilbert_bounded(M2, M2_IDEAL, np.zeros(2)).constant == 0.0
    report = is_hilbert_bounded(M2, M2_IDEAL, M2_F)
    assert report.bounded and report.constant == pytest.approx(1.0, abs=1e-12)


def test_nilpotent_functional_admissible_but_not_hilbert_bounded():
    algebra = nilpotent_algebra()
    ideal = LeftIdeal(np.eye(3, dtype=complex)[:, 1:])  # span{t, t^2}
    f = np.array([0.0, 1.0], dtype=complex)  # f(t) = 0, f(t^2) = 1
    assert validate_algebra(algebra, ideal).ok
    assert is_admissible(algebra, ideal, f).admissible
    report = is_hilbert_bounded(algebra, ideal, f)
    assert not report.bounded and math.isinf(report.constant)
    with pytest.raises(NotHilbertBounded):
        extend_functional(algebra, ideal, f)
    # the unital shortcut cannot rescue it either: the unit never reaches
    # the ideal through the form, and the failure is surfaced
    with pytest.raises(NotHilbertBounded):
        extend_functional_unital(algebra, ideal, f)


def test_admissibility_lambdas_for_matrix_units():
    report = is_admissible(M2, M2_IDEAL, M2_F)
    assert report.admissible
    assert np.allclose(report.lambdas, np.ones(4), atol=1e-9)


def test_admissibility_zero_functional():
    report = is_admissible(M2, M2_IDEAL, np.zeros(2))
    assert report.admissible and np.allclose(report.lambdas, 0.0)


def test_gns_empty_and_m2():
    empty = gns(M2, M2_IDEAL, np.zeros(2))
    assert empty.r == 0 and empty.zeta.size == 0

    data = gns(M2, M2_IDEAL, M2_F)
    assert data.r == 2
    assert np.linalg.norm(data.zeta) ** 2 == pytest.approx(1.0, abs=1e-12)


def _star_hom_residuals(algebra, data):
    m = algebra.m
    mult_res = max(
        float(
            np.linalg.norm(
                data.pi[i] @ data.pi[j]
                - sum(algebra.mult[i, j, k] * data.pi[k] for k in range(m))
            )
        )
        for i in range(m)
        for j in range(m)
    )
    star_res = max(
        float(
            np.linalg.norm(
                data.pi[i].conj().T
                - sum(algebra.invol[i, k] * data.pi[k] for k in range(m))
            )
        )
        for i in range(m)
    )
    vec_res = max(
        float(np.linalg.norm(data.pi[i] @ data.zeta - data.j_star_full[:, i]))
        for i in range(m)
    )
    return mult_res, star_res, vec_res


def test_gns_star_homomorphism_residuals():
    rng = rng_for(71)
    for trial in range(20):
        if trial % 2 == 0:
            algebra, ideal, f = M2, M2_IDEAL, random_m2_functional(rng)
        else:
            k = int(rng.integers(1, 5))
            algebra, to_rot, data_t = rotated_commutative(rng, k)
            support = sorted(
                set(int(s) for s in rng.integers(0, k, size=max(1, k // 2 + 1)))
            )
            ideal = rotated_ideal(data_t["transform"], support)
            f = rng.uniform(0.2, 2.0, size=len(support)).astype(complex)
        data = gns(algebra, ideal, f)
        mult_res, star_res, vec_res = _star_hom_residuals(algebra, data)
        assert mult_res <= 1e-10
        assert star_res <= 1e-10
        assert vec_res <= 1e-10
        # zeta represents f on the embedded ideal: f(a) = <class of A a, zeta>
        for l in range(ideal.p):
            coords = data.j_star_full @ ideal.basis[:, l]
            assert np.vdot(data.zeta, coords) == pytest.approx(
                complex(f[l]), abs=1e-10
            )
        f_n = extend_functional(algebra, ideal, f)
        restriction = ideal.basis.T @ f_n
        assert np.max(np.abs(restriction - f)) <= 1e-10 * (1 + np.max(np.abs(f)))


def test_extend_functional_m2_vector_state():
    f_n = extend_functional(M2, M2_IDEAL, M2_F)
    assert np.allclose(f_n, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_extend_functional_zero():
    assert np.allclose(extend_functional(M2, M2_IDEAL, np.zeros(2)), np.zeros(4))


def test_unital_path_agrees_and_bound_dominated():
    rng = rng_for(83)
    for _ in range(10):
        f = random_m2_functional(rng)
        via_gns = extend_functional(M2, M2_IDEAL, f)
        via_unit = extend_functional_unital(M2, M2_IDEAL, f)
        assert np.max(np.abs(via_gns - via_unit)) <= 1e-8 * (1 + np.max(np.abs(via_gns)))
        bound = is_hilbert_bounded(M2, M2_IDEAL, f).constant
        f_n_at_unit = float(np.real(np.dot(M2.unit, via_gns)))
        assert bound <= f_n_at_unit + 1e-8


def test_no_unit_error():
    mult = delta_algebra(2).mult
    algebra = StarAlgebra(mult=mult, invol=np.eye(2, dtype=complex))
    with pytest.raises(NoUnit):
        extend_functional_unital(algebra, whole_algebra_ideal(algebra), np.ones(2))


def test_fn_on_positive_examples():
    assert fn_on_positive(M2, M2_IDEAL, M2_F, np.zeros(4)) == 0.0
    e11 = np.array([1.0, 0, 0, 0])
    assert fn_on_positive(M2, M2_IDEAL, M2_F, e11) == pytest.approx(1.0, abs=1e-12)


def test_fn_on_positive_against_sup_oracle():
    rng = rng_for(97)
    for trial in range(8):
        f = random_m2_functional(rng)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        closed = fn_on_positive(M2, M2_IDEAL, f, x)
        brute = fn_sup_oracle(M2, M2_IDEAL, f, x, rng, samples=10_000)
        assert closed == pytest.approx(brute, rel=1e-4, abs=1e-9)


def test_is_representable_examples():
    assert is_representable(M2, np.zeros(4))
    assert is_representable(M2, TRACE)
    assert not is_representable(M2, np.array([0.0, 1.0, 0.0, 0.0]))


def test_f_max_trivial_bound():
    f_n = extend_functional(M2, M2_IDEAL, M2_F)
    result = f_max(M2, M2_IDEAL, M2_F, f_n)
    assert np.max(np.abs(result - f_n)) <= 1e-9


def test_f_max_m2_trace_interval():
    result = f_max(M2, M2_IDEAL, M2_F, TRACE)
    f_n = extend_functional(M2, M2_IDEAL, M2_F)
    # the trace extends f, so it is itself the maximal extension below it
    assert np.max(np.abs(result - TRACE)) <= 1e-9
    assert functional_leq(M2, f_n, result)
    assert functional_leq(M2, result, TRACE)
    # sampled interval members h(x) = tr(x diag(1, s)) extend f exactly
    for s in (0.0, 0.25, 0.75, 1.0):
        h = np.array([1.0, 0.0, 0.0, s], dtype=complex)
        assert is_representable(M2, h)
        assert functional_leq(M2, f_n, h) and functional_leq(M2, h, result)
        restriction = M2_IDEAL.basis.T @ h
        assert np.allclose(restriction, M2_F, atol=1e-12)


def test_f_max_not_dominating_certificate():
    f_n = extend_functional(M2, M2_IDEAL, M2_F)
    small = 0.5 * f_n
    with pytest.raises(BoundNotDominating, match="does not dominate the minimal extension") as info:
        f_max(M2, M2_IDEAL, M2_F, small)
    # a unit direction v along which the form of g - f_N is negative
    v = info.value.certificate
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert np.vdot(v, functional_gram(M2, small - f_n) @ v).real < 0.0


@pytest.mark.parametrize(
    "s",
    [
        1e9,
        pytest.param(
            1e10,
            marks=pytest.mark.xfail(
                strict=True,
                raises=NonPsdGram,
                reason="ROADMAP item 3: the Gram of g|I - f, rounding noise when g = f_N, "
                "is tested for positivity at its own scale, not at that of f and g",
            ),
        ),
        1e11,
    ],
)
def test_f_max_with_f_n_as_the_bound_is_f_n(s):
    # f = s tr(rho .) with rho = [[2, 1], [1, 1]] on the ideal basis E11, E21
    f = s * np.array([2.0, 1.0], dtype=complex)
    g = extend_functional(M2, M2_IDEAL, f)
    assert np.max(np.abs(f_max(M2, M2_IDEAL, f, g) - g)) <= 1e-15 * s


def test_f_max_rejects_unrepresentable_bound():
    g = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(NotRepresentable):
        f_max(M2, M2_IDEAL, M2_F, g)


def test_commutative_closed_forms():
    rng = rng_for(113)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        algebra, to_rot, data = rotated_commutative(rng, k)
        support = sorted(set(int(s) for s in rng.integers(0, k, size=k // 2 + 1)))
        off = [i for i in range(k) if i not in support]
        ideal = rotated_ideal(data["transform"], support)
        w = rng.uniform(0.1, 2.0, size=len(support))
        f = w.astype(complex)

        # Hilbert bound is the total mass of the point weights
        hb = is_hilbert_bounded(algebra, ideal, f)
        assert hb.bounded and hb.constant == pytest.approx(float(np.sum(w)), rel=1e-8)

        # minimal extension puts zero weight off the support
        delta_f_n = np.zeros(k)
        for idx, s in enumerate(support):
            delta_f_n[s] = w[idx]
        f_n = extend_functional(algebra, ideal, f)
        assert np.max(np.abs(f_n - to_rot(delta_f_n))) <= 1e-8

        # maximal extension below g fills the complement with g's weights
        g_delta = delta_f_n + 0.0
        g_delta[off] = rng.uniform(0.5, 2.0, size=len(off))
        g_delta[list(support)] += rng.uniform(0.0, 1.0, size=len(support))
        g = to_rot(g_delta)
        result = f_max(algebra, ideal, f, g)
        expected_delta = delta_f_n.copy()
        expected_delta[off] = g_delta[off]
        assert np.max(np.abs(result - to_rot(expected_delta))) <= 1e-7

        # interval characterization, both directions
        for _ in range(4):
            h_delta = expected_delta.copy()
            h_delta[off] = rng.uniform(0.0, 1.0, size=len(off)) * g_delta[off]
            h = to_rot(h_delta)
            assert is_representable(algebra, h)
            assert functional_leq(algebra, h, g)
            assert functional_leq(algebra, f_n, h)
            assert functional_leq(algebra, h, result)
            assert np.max(np.abs(ideal.basis.T @ h - f)) <= 1e-8
        if off:
            bad = expected_delta.copy()
            bad[support[0]] += 0.3  # no longer extends f
            h_bad = to_rot(bad)
            inside = functional_leq(algebra, f_n, h_bad) and functional_leq(
                algebra, h_bad, result
            )
            assert not inside
