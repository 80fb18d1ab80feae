import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvnext import (
    KernelProblem,
    PartialOperator,
    a_max,
    cli,
    extend_kernel,
    gram_spectrum,
    halmos_complete,
    in_interval,
    is_extendible,
    krein_von_neumann,
    minimal_constant_estimate,
    qform_sup,
    schwarz_gap,
    verify_commutation,
)
from kvnext import extension_set
from kvnext import numcore as nc
from kvnext.errors import InvalidOperator, NonPsdGram, NotExtendible, NotPsd
from util_gen import (
    commuting_instance,
    orthonormal_columns,
    random_partial,
    random_psd,
    random_unitary,
    random_vector,
    rng_for,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"

E1 = np.array([[1.0], [0.0]], dtype=complex)
RUN2 = PartialOperator(E1, np.array([[1.0], [1.0]], dtype=complex))
HALMOS = PartialOperator(E1, np.array([[0.0], [1.0]], dtype=complex))


def test_each_construction_factors_the_gram_once(lapack_calls, monkeypatch):
    rng = rng_for(2024)
    t = random_psd(rng, 8)
    basis = orthonormal_columns(rng, 8, 4)
    p = PartialOperator(basis, t @ basis)
    bound = t + np.eye(8)

    lapack_calls.clear()
    krein_von_neumann(p)
    # D is well conditioned and no Gram eigenvalue is near the cutoff, so the
    # Gram's spectrum decides the rank of D and the sigma_max brackets the
    # cutoff, without a Cholesky or an SVD
    counts = tuple(lapack_calls[k] for k in ("eigh", "eigvalsh", "svd", "norm2", "cholesky"))
    assert counts == (1, 1, 0, 0, 0)

    # one eigh of G, whose spectrum decides the rank of D; Cholesky
    # certificates decide B - a_n >= 0, T >= 0 and T <= B, so no eigvalsh runs
    lapack_calls.clear()
    assert in_interval(p, bound, t)
    counts = tuple(lapack_calls[k] for k in ("eigh", "eigvalsh", "svd", "cholesky"))
    assert counts == (1, 0, 0, 3)

    rank_tests = []
    for name in ("full_column_rank", "_gram_certifies_rank"):
        test = getattr(nc, name)
        monkeypatch.setattr(nc, name, lambda *a, test=test: rank_tests.append(1) or test(*a))
    lapack_calls.clear()
    a_max(p, bound)
    assert tuple(lapack_calls[k] for k in ("eigh", "eigvalsh", "cholesky")) == (2, 0, 1)
    # the shifted operator has the same D, whose rank verdict is reused
    assert len(rank_tests) == 1


def test_a_max_brackets_d_once(monkeypatch):
    rng = rng_for(2024)
    t = random_psd(rng, 8)
    basis = orthonormal_columns(rng, 8, 4)
    p = PartialOperator(basis, t @ basis)
    bound = t + np.eye(8)
    # the reference brackets D again: it reads no basis_bracket
    plain = extension_set._interval(dataclasses.replace(gram_spectrum(p), basis_bracket=None), bound)

    bracketed = []
    bracket = nc._sigma_max_bracket
    monkeypatch.setattr(nc, "_sigma_max_bracket", lambda x: bracketed.append(x) or bracket(x))
    # D, Ad and the shifted action B D - Ad: the shifted operator reuses D's
    top = a_max(p, bound).a_max
    assert len(bracketed) == 3
    assert top.tobytes() == plain.a_max.tobytes()
    bracketed.clear()
    # D and Ad: in_interval builds no shifted operator
    assert in_interval(p, bound, t)
    assert len(bracketed) == 2


def test_extend_with_a_bound_brackets_d_once(monkeypatch, tmp_path):
    bracketed = []
    bracket = nc._sigma_max_bracket
    monkeypatch.setattr(nc, "_sigma_max_bracket", lambda x: bracketed.append(x) or bracket(x))
    out = tmp_path / "r.json"
    argv = ["extend", str(FIXTURES / "extend_bounded_n12.json"), "--out", str(out)]
    assert cli.main(argv) == 0
    # D, Ad and the shifted action B D - Ad, as in a_max
    assert len(bracketed) == 3
    assert out.read_bytes() == (FIXTURES.parent / "golden" / "extend_bounded_n12.report.json").read_bytes()


def test_a_candidate_outside_the_interval_is_refuted_without_eigvalsh(lapack_calls):
    rng = rng_for(2024)
    t = random_psd(rng, 8)
    basis = orthonormal_columns(rng, 8, 4)
    p = PartialOperator(basis, t @ basis)
    u = orthonormal_columns(rng, 8, 1)
    # T + u u†/4 changes the action on the domain, so the X D = Ad test
    # refutes it: after the eigh of G, only the Cholesky certificate of
    # B - a_n >= 0 runs, and no Loewner test
    assert not in_interval(p, t + np.eye(8), t + 0.25 * (u @ u.conj().T))
    counts = tuple(lapack_calls[k] for k in ("eigh", "eigvalsh", "svd", "cholesky"))
    assert counts == (1, 0, 0, 1)


def test_only_the_constructions_that_read_j_form_it(monkeypatch):
    from kvnext import commutation, extension_set, kernels

    specs = []

    def record(module, name):
        fn = getattr(module, name)

        def recorded(*args, **kwargs):
            specs.append(fn(*args, **kwargs))
            return specs[-1]

        monkeypatch.setattr(module, name, recorded)

    record(extension_set, "gram_spectrum")
    record(extension_set, "_spectrum")
    record(commutation, "gram_spectrum")
    record(kernels, "gram_spectrum")
    rng = rng_for(2025)
    t = random_psd(rng, 8)
    basis = orthonormal_columns(rng, 8, 4)
    p = PartialOperator(basis, t @ basis)
    bound = t + np.eye(8)
    a_max(p, bound)
    in_interval(p, bound, t)
    p2, b, c = commuting_instance(rng, 6)
    verify_commutation(p2, b, c)
    extend_kernel(KernelProblem(m=2, n=2, sub=PartialOperator(basis[:4, :2], t[:4, :4] @ basis[:4, :2])))
    # a_max two (A and B D - Ad), in_interval, verify_commutation and
    # extend_kernel one each
    assert len(specs) == 5
    assert all("j" not in spec.__dict__ for spec in specs)
    # the constructions that do read J form it once, with the same arithmetic
    spec = gram_spectrum(p)
    j = spec.j
    assert spec.j is j
    assert j.tobytes() == (p.action @ (spec.u / np.sqrt(spec.lam))).tobytes()
    assert krein_von_neumann(p).factorization.j.tobytes() == j.tobytes()


@pytest.mark.parametrize("fn", [nc.psd_sqrt])
def test_psd_matrix_functions_check_and_factor_once(fn, lapack_calls):
    fn(random_psd(rng_for(7), 6, rank=3))
    assert (lapack_calls["eigh"], lapack_calls["eigvalsh"]) == (1, 0)
    with pytest.raises(NotPsd):
        fn(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_completion_and_schwarz_check_each_matrix_once(lapack_calls):
    rng = rng_for(31)
    b = random_psd(rng, 5, rank=3)
    halmos_complete(b[:3, :3], b[3:, :3])
    assert lapack_calls["eigvalsh"] <= 1
    # gram_spectrum's eigh of G = A11, which the three block-side criteria
    # (the range condition among them) read as well
    assert lapack_calls["eigh"] == 1
    # sigma_max of the column for gram_spectrum's cutoff, and ||A21||_2 for
    # the kernel-inclusion cutoff, are both decided by their brackets
    assert lapack_calls["norm2"] == 0

    k = 3
    ops = [random_psd(rng, 4) for _ in range(k)]
    lapack_calls.clear()
    schwarz_gap(ops, [random_vector(rng, 4) for _ in range(k)])
    minimal_constant_estimate(ops, 20, seed=0)
    assert lapack_calls["eigvalsh"] <= k + 1


def test_rank_test_falls_back_to_the_svd_when_the_certificate_fails(lapack_calls):
    # sigma_min / sigma_max(D) = 1e-8: full rank at rank_rel_eps = 1e-10, but
    # below what the Cholesky certificate can prove
    d = np.array([[1.0, 0.0], [0.0, 1e-8], [0.0, 0.0]], dtype=complex)
    assert nc.full_column_rank(d)
    assert (lapack_calls["cholesky"], lapack_calls["svd"]) == (1, 1)
    lapack_calls.clear()
    assert gram_spectrum(PartialOperator(d, d)).r == 1
    assert (lapack_calls["svd"], lapack_calls["norm2"]) == (1, 0)


def test_bounded_extend_computes_the_interval_once(lapack_calls, tmp_path):
    argv = ["extend", str(FIXTURES / "extend_bounded_3i.json"), "--out", str(tmp_path / "r.json")]
    assert cli.main(argv) == 0
    # one SVD and one eigh per operator (A for a_n and the bound check, then
    # B - A), and one eigh for the samples' square root
    assert lapack_calls["svd"] <= 2
    assert lapack_calls["eigh"] <= 3
    assert lapack_calls["eigvalsh"] <= 3


def test_kernel_command_tests_positivity_once(lapack_calls, tmp_path):
    argv = ["kernel", str(FIXTURES / "kernel_m2_ones.json"), "--out", str(tmp_path / "r.json")]
    assert cli.main(argv) == 0
    # the Gram's spectrum decides the rank of D, then a Cholesky certificate
    # the report's positive_definite; a_n is PSD by construction
    assert (lapack_calls["eigvalsh"], lapack_calls["cholesky"]) == (0, 1)


def test_schwarz_command_factors_each_operator_once(lapack_calls, tmp_path):
    argv = ["schwarz", str(FIXTURES / "schwarz_diag.json"), "--out", str(tmp_path / "r.json")]
    assert cli.main(argv) == 0
    # one eigh per A_j for its PSD test and its square root, one eigvalsh of the sum
    assert (lapack_calls["eigh"], lapack_calls["eigvalsh"]) == (1, 1)

    rng = rng_for(32)
    k = 3
    problem = json.loads((FIXTURES / "schwarz_diag.json").read_text())
    problem["payload"]["operators"] = [cli._grid(random_psd(rng, 4)).tolist() for _ in range(k)]
    problem["payload"]["vectors"] = [cli._grid(random_vector(rng, 4)).tolist() for _ in range(k)]
    src = tmp_path / "family.json"
    src.write_text(json.dumps(problem))
    lapack_calls.clear()
    assert cli.main(["schwarz", str(src), "--out", str(tmp_path / "r.json")]) == 0
    assert (lapack_calls["eigh"], lapack_calls["eigvalsh"]) == (k, 1)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["extendible", "violating"]))
def test_domain_basis_change_leaves_a_n_and_verdict(seed, force):
    rng = rng_for(seed)
    p = random_partial(rng, force=force)
    d = p.d
    s = np.eye(d) + 0.3 * (
        rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    ) / np.sqrt(max(d, 1))
    q = PartialOperator(p.domain_basis @ s, p.action @ s)
    assert is_extendible(q).extendible == is_extendible(p).extendible == (force == "extendible")
    if force == "extendible":
        a_p = krein_von_neumann(p).a_n
        a_q = krein_von_neumann(q).a_n
        assert nc.fro(a_q - a_p) <= nc.DEFAULT_TOL.cmp_tol * (1.0 + nc.fro(a_p))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["extendible", "violating"]))
def test_unitary_change_of_space_conjugates_a_n(seed, force):
    rng = rng_for(seed)
    p = random_partial(rng, force=force)
    u = random_unitary(rng, p.n)
    q = PartialOperator(u @ p.domain_basis, u @ p.action)
    assert is_extendible(q).extendible == is_extendible(p).extendible == (force == "extendible")
    if force == "extendible":
        a_p = krein_von_neumann(p).a_n
        a_q = krein_von_neumann(q).a_n
        assert nc.fro(a_q - u @ a_p @ u.conj().T) <= nc.DEFAULT_TOL.cmp_tol * (1.0 + nc.fro(a_p))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_halmos_completion_is_the_extension_of_the_first_block_column(seed):
    # criterion 6's blocks: A11 PSD of any rank, A21 free or in the range of A11
    rng = rng_for(seed)
    k, rows = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    a11 = random_psd(rng, k, rank=int(rng.integers(0, k + 1)))
    a21 = rng.standard_normal((rows, k)) + 1j * rng.standard_normal((rows, k))
    if rng.uniform() < 0.5:
        a21 = a21 @ a11
    report = halmos_complete(a11, a21)
    p = PartialOperator(np.eye(k + rows, k, dtype=complex), np.vstack([a11, a21]))
    assert is_extendible(p).extendible == report.completable
    if report.completable:
        a_n = krein_von_neumann(p).a_n
        gap = nc.fro(report.a22_min - a_n[k:, k:])
        assert gap <= nc.DEFAULT_TOL.cmp_tol * (1.0 + nc.fro(a_n))


def test_spectrum_of_the_running_example():
    spec = gram_spectrum(RUN2)
    assert spec.extendible and spec.witness is None and spec.r == 1
    assert np.allclose(spec.j, [[1.0], [1.0]])
    assert spec.hilbert_bound() == pytest.approx(2.0, abs=1e-12)
    assert spec.hilbert_bound() == krein_von_neumann(RUN2).norm
    assert spec.form(np.array([1.0])) == pytest.approx(1.0, abs=1e-12)


def test_form_is_infinite_off_the_range_of_g():
    spec = gram_spectrum(HALMOS)
    assert not spec.extendible and spec.r == 0
    assert math.isinf(spec.hilbert_bound())
    assert spec.form(np.array([1.0])) == math.inf
    assert spec.form(np.array([0.0])) == 0.0
    with pytest.raises(NotExtendible) as info:
        qform_sup(HALMOS, np.array([0.0, 1.0]))
    assert np.array_equal(info.value.certificate, spec.witness)


def test_form_matches_numpy_pinv():
    rng = rng_for(606)
    for _ in range(10):
        p = random_partial(rng, force="extendible")
        spec = gram_spectrum(p)
        v = p.action.conj().T @ random_vector(rng, p.n)
        pinv = np.linalg.pinv(p.gram(), rtol=1e-10, hermitian=True)
        direct = float(np.real(np.vdot(v, pinv @ v)))
        assert spec.form(v) == pytest.approx(direct, rel=1e-8, abs=1e-10)


def test_validation_errors_are_invalid_operators():
    bad = PartialOperator(E1, np.array([[-1.0], [0.0]], dtype=complex))
    with pytest.raises(NonPsdGram, match="partial operator invalid: non_psd_gram"):
        gram_spectrum(bad)
    with pytest.raises(InvalidOperator):
        gram_spectrum(bad)
