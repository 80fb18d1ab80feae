import json
from pathlib import Path

import numpy as np
import pytest

from kvnext import PartialOperator, cli, commutation, krein_von_neumann, verify_commutation
from kvnext import numcore as nc
from kvnext.errors import DomainNotInvariant, HypothesesFail, ResultOutOfRange, ShapeMismatch
from util_gen import commuting_instance, random_partial, rng_for

FIXTURES = Path(__file__).resolve().parent / "fixtures"

E1 = np.array([[1.0], [0.0]], dtype=complex)


def test_identity_operators_always_intertwine():
    rng = rng_for(1)
    for _ in range(5):
        p = random_partial(rng, force="extendible")
        eye = np.eye(p.n)
        report = verify_commutation(p, eye, eye)
        assert report.hypotheses_hold and report.conclusion_holds
        assert report.residual_cb <= 1e-12 and report.residual_bc <= 1e-12


def test_diagonal_example():
    p = PartialOperator(E1, E1.copy())  # A e1 = e1, so a_n = E11
    b = np.diag([2.0, 5.0]).astype(complex)
    report = verify_commutation(p, b, b)
    assert report.hypotheses_hold and report.conclusion_holds
    # C† a_n = a_n B = b1 * E11 exactly
    a_n = np.diag([1.0, 0.0])
    assert np.allclose(b.conj().T @ a_n, a_n @ b)


def test_non_invariant_domain_detected():
    p = PartialOperator(E1, E1.copy())
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(HypothesesFail):
        verify_commutation(p, nilpotent, nilpotent)


@pytest.mark.parametrize(
    "b, c, error, message",
    [
        ([[0, 0], [1, 0]], [[1, 0], [0, 1]], DomainNotInvariant,
         "invariance: B does not leave the domain invariant"),
        ([[1, 0], [0, 1]], [[0, 0], [1, 0]], DomainNotInvariant,
         "invariance: C does not leave the domain invariant"),
        ([[0, 1], [0, 0]], [[0, 1], [0, 0]], HypothesesFail, "C† A = A B fails on the domain"),
        ([[1, 1], [0, 0]], [[1, 0], [0, 0]], HypothesesFail, "B† A = A C fails on the domain"),
    ],
)
def test_each_failure_kind_keeps_its_class_and_message(b, c, error, message):
    p = PartialOperator(E1, E1.copy())
    with pytest.raises(HypothesesFail) as exc:
        verify_commutation(p, b, c)
    assert (type(exc.value), str(exc.value)) == (error, message)


def test_shape_mismatch():
    p = PartialOperator(E1, E1.copy())
    with pytest.raises(ShapeMismatch):
        verify_commutation(p, np.eye(3), np.eye(3))


def test_constructed_family_satisfies_conclusion():
    rng = rng_for(42)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        p, b, c = commuting_instance(rng, n)
        report = verify_commutation(p, b, c)
        assert report.hypotheses_hold
        assert report.conclusion_holds, (report.residual_cb, report.residual_bc)


def test_role_swap_swaps_residuals():
    rng = rng_for(43)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        p, b, c = commuting_instance(rng, n)
        r1 = verify_commutation(p, b, c)
        r2 = verify_commutation(p, c, b)
        assert r1.residual_cb == pytest.approx(r2.residual_bc, abs=1e-12)
        assert r1.residual_bc == pytest.approx(r2.residual_cb, abs=1e-12)


def test_self_adjoint_case_commutes_with_extension():
    from kvnext import krein_von_neumann

    rng = rng_for(44)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        p, b, c = commuting_instance(rng, n, hermitian=True)
        assert nc.fro(b - c) <= 1e-12
        report = verify_commutation(p, b, b)
        assert report.hypotheses_hold and report.conclusion_holds
        a_n = krein_von_neumann(p).a_n
        assert nc.fro(a_n @ b - b @ a_n) <= 1e-7 * (1.0 + nc.fro(a_n) * nc.fro(b))


def test_invariance_seen_at_the_validated_rank():
    # sigma_min / sigma_max(D) = 1e-8: valid at rank_rel_eps = 1e-10, but
    # below what a projector built from D D† can resolve (its squared
    # spectrum puts e2 at 1e-16, under the 64 eps floor).
    d = np.array([[1.0, 0.0], [0.0, 1e-8], [0.0, 0.0]], dtype=complex)
    ad = np.array([[1.0, 0.0], [0.0, 1e8], [0.0, 0.0]], dtype=complex)  # G = I
    p = PartialOperator(d, ad)
    b = np.diag([2.0, 30.0, 5.0]).astype(complex)
    report = verify_commutation(p, b, b)
    assert report.hypotheses_hold
    assert report.conclusion_holds


def test_hypotheses_read_one_qr_of_the_domain(lapack_calls, tmp_path):
    p, b, c = commuting_instance(rng_for(45), 16)
    lapack_calls.clear()
    assert verify_commutation(p, b, c).conclusion_holds
    # one LU of the QR's r serves both hypotheses' coordinates
    assert lapack_calls == {"cholesky": 1, "eigh": 1, "qr": 1, "solve": 1}

    lapack_calls.clear()
    argv = ["commutation", str(FIXTURES / "commutation_diag.json"), "--out", str(tmp_path / "r.json")]
    assert cli.main(argv) == 0
    assert (lapack_calls["lstsq"], lapack_calls["qr"]) == (0, 1)
    assert lapack_calls["eigh"] <= 1


def assert_residuals_match_the_explicit_product(p, b, c):
    """The factored residuals against ||C† a_n - a_n B||_F and ||B† a_n - a_n C||_F
    on the formed a_n, and the same conclusion at cmp_tol."""
    report = verify_commutation(p, b, c)
    a_n = krein_von_neumann(p).a_n
    explicit = (nc.fro(c.conj().T @ a_n - a_n @ b), nc.fro(b.conj().T @ a_n - a_n @ c))
    scale = nc.fro(a_n) * max(nc.fro(b), nc.fro(c))
    for got, want in zip((report.residual_cb, report.residual_bc), explicit):
        assert abs(got - want) <= 1e-12 * (1.0 + scale), (got, want)
    tol = nc.DEFAULT_TOL.cmp_tol * (1.0 + scale)
    assert report.conclusion_holds == (max(explicit) <= tol)
    return report.conclusion_holds


def test_factored_residuals_match_the_explicit_ones_on_the_acceptance_families():
    rng = rng_for(1007)  # the 200 families of acceptance criterion 7
    for _ in range(200):
        p, b, c = commuting_instance(rng, int(rng.integers(2, 9)))
        assert assert_residuals_match_the_explicit_product(p, b, c)


def test_factored_residuals_match_the_explicit_ones_where_the_conclusion_fails(monkeypatch):
    # with the hypothesis step switched off, B and C need not intertwine
    monkeypatch.setattr(commutation, "_hypothesis_status", lambda *args: None)
    rng = rng_for(1008)
    verdicts = []
    for i in range(60):
        n = int(rng.integers(2, 9))
        p, b, c = commuting_instance(rng, n)
        if i % 2:
            p = random_partial(rng, n=n, force="extendible")
        noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        eps = (1e-3, 1e-6, 1e-10)[i % 3]
        verdicts.append(assert_residuals_match_the_explicit_product(p, b + eps * noise, c))
    assert 0 < sum(verdicts) < len(verdicts)


def test_the_one_residual_is_both_explicit_residuals(monkeypatch):
    # a_n is self-adjoint, so ||C† a_n - a_n B||_F = ||B† a_n - a_n C||_F for
    # any B and C; with the hypothesis step switched off they need not intertwine
    monkeypatch.setattr(commutation, "_hypothesis_status", lambda *args: None)
    rng = rng_for(1009)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        p = random_partial(rng, n=n, force="extendible")
        b, c = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in "bc")
        report = verify_commutation(p, b, c)
        assert report.residual_cb == report.residual_bc
        a_n = krein_von_neumann(p).a_n
        for explicit in (nc.fro(c.conj().T @ a_n - a_n @ b), nc.fro(b.conj().T @ a_n - a_n @ c)):
            assert abs(report.residual_cb - explicit) <= 1e-10 * explicit, (report.residual_cb, explicit)


def test_a_failed_hypothesis_raises_before_the_residual(monkeypatch):
    monkeypatch.setattr("kvnext.partial_op.GramSpectrum.require_extendible", lambda spec: pytest.fail("residual computed"))
    p = PartialOperator(E1, E1.copy())
    with pytest.raises(HypothesesFail, match=r"C† A = A B fails"):
        verify_commutation(p, [[0, 1], [0, 0]], [[0, 1], [0, 0]])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the products overflow
def test_a_minimal_extension_that_overflows_raises_result_out_of_range():
    # G = 1e-151 against Ad = 1e150: a_n and j† j are about 1e451
    p = PartialOperator([[1e-301], [0]], [[1e150], [0]])
    with pytest.raises(ResultOutOfRange) as exc:
        verify_commutation(p, np.eye(2), np.eye(2))
    assert str(exc.value) == "minimal extension a_n = Ad G+ Ad† overflows the float range"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the residual norms overflow
def test_residuals_that_overflow_fail_closed(tmp_path):
    # a_n = 1e300 e1 e1†: I intertwines exactly, but ||.||_F of the factored
    # residual and its tolerance overflow, and inf <= inf would read as "holds"
    p = PartialOperator(1e-150 * E1, 1e150 * E1)
    message = "the intertwining residual of a_n overflows the float range"
    with pytest.raises(ResultOutOfRange) as exc:
        verify_commutation(p, np.eye(2), np.eye(2))
    assert str(exc.value) == message

    identity = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    problem = {
        "schema_version": "1",
        "kind": "commutation_problem",
        "payload": {
            "partial_operator": {
                "dim": 2,
                "domain_basis": [[[1e-150, 0.0]], [[0.0, 0.0]]],
                "action": [[[1e150, 0.0]], [[0.0, 0.0]]],
            },
            "b": identity,
            "c": identity,
        },
    }
    src, out = tmp_path / "problem.json", tmp_path / "r.json"
    src.write_text(json.dumps(problem))
    assert cli.main(["commutation", str(src), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert (report["status"], report["result"]) == ("invalid_input", {})
    assert report["diagnostics"] == [message]
