import math

import numpy as np
import pytest

from kvnext import (
    PartialOperator,
    a_max,
    halmos_complete,
    in_interval,
    krein_von_neumann,
    loewner_leq,
    sample_extensions,
)
from kvnext import numcore as nc
from kvnext.errors import BoundTooSmall, NotPsd, ShapeMismatch
from util_gen import (
    dominating_bound,
    extensions_by_block,
    random_partial,
    random_psd,
    rng_for,
)

E1 = np.array([[1.0], [0.0]], dtype=complex)
RUN2 = PartialOperator(E1, np.array([[1.0], [1.0]], dtype=complex))
ONES = np.array([[1.0, 1.0], [1.0, 1.0]])


def test_a_max_at_the_minimal_bound_is_degenerate():
    res = a_max(RUN2, ONES)
    assert res.degenerate
    assert np.allclose(res.a_max, ONES, atol=1e-10)


def test_a_max_running_example():
    res = a_max(RUN2, 3 * np.eye(2))
    assert np.allclose(res.a_max, [[1.0, 1.0], [1.0, 2.5]], atol=1e-10)
    assert not res.degenerate
    # shifted Gram is 2, shifted action (2, -1)
    shifted = PartialOperator(E1, 3 * np.eye(2) @ E1 - RUN2.action)
    assert np.allclose(shifted.gram(), [[2.0]])
    assert np.allclose(
        krein_von_neumann(shifted).a_n, [[2.0, -1.0], [-1.0, 0.5]], atol=1e-10
    )


def test_a_max_tight_bound_collapses_to_a_n():
    res = a_max(RUN2, 2 * np.eye(2))
    assert res.degenerate
    assert np.allclose(res.a_max, ONES, atol=1e-9)


def test_bound_too_small_carries_certificate():
    with pytest.raises(BoundTooSmall) as info:
        a_max(RUN2, np.eye(2))
    cert = info.value.certificate
    gap = np.eye(2) - ONES
    assert float(np.real(np.vdot(cert, gap @ cert))) < 0


def test_marginal_bound_accepted_with_warning():
    # dominates only within psd_tol: accepted, but flagged
    bound = ONES - 1e-12 * np.eye(2)
    with pytest.warns(UserWarning, match="tolerance-marginal"):
        res = a_max(RUN2, bound)
    assert res.degenerate


def test_in_interval_examples():
    b = 3 * np.eye(2)
    assert in_interval(RUN2, b, ONES)
    cand = np.array([[1.0, 1.0], [1.0, 1.5]])
    assert in_interval(RUN2, b, cand)
    assert np.allclose(cand @ np.array([1.0, 0.0]), [1.0, 1.0])
    assert not in_interval(RUN2, b, np.eye(2))
    with pytest.raises(ShapeMismatch):
        in_interval(RUN2, b, np.eye(3))


def test_sample_extensions_endpoints_and_determinism():
    b = 3 * np.eye(2)
    s1 = sample_extensions(RUN2, b, 4, seed=7)
    s2 = sample_extensions(RUN2, b, 4, seed=7)
    assert all(np.array_equal(x, y) for x, y in zip(s1, s2))
    for s in s1:
        assert np.allclose(s @ E1, RUN2.action, atol=1e-9)
        assert in_interval(RUN2, b, s)
    degenerate = sample_extensions(RUN2, ONES, 3, seed=1)
    for s in degenerate:
        assert np.allclose(s, ONES, atol=1e-8)


def test_duality_of_extremes():
    rng = rng_for(51)
    for _ in range(15):
        p = random_partial(rng, force="extendible")
        res = krein_von_neumann(p)
        b = dominating_bound(rng, res.a_n)
        interval = a_max(p, b, nc.DEFAULT_TOL)
        shifted = PartialOperator(p.domain_basis, b @ p.domain_basis - p.action)
        shifted_min = krein_von_neumann(shifted).a_n
        assert nc.fro((b - interval.a_max) - shifted_min) <= 1e-8 * (
            1.0 + nc.fro(shifted_min)
        )


def test_interval_soundness_and_completeness():
    rng = rng_for(62)
    sound = complete = 0
    for _ in range(15):
        p = random_partial(rng, force="extendible")
        b = dominating_bound(rng, krein_von_neumann(p).a_n)
        for s in sample_extensions(p, b, 4, seed=3):
            assert in_interval(p, b, s)
            assert nc.fro(s @ p.domain_basis - p.action) <= 1e-7 * (
                1.0 + nc.fro(p.action)
            )
            sound += 1
        for m in extensions_by_block(rng, p, b, count=4):
            assert in_interval(p, b, m)
            complete += 1
    assert sound >= 40 and complete >= 20


def test_halmos_counterexample():
    report = halmos_complete(np.array([[0.0]]), np.array([[1.0]]))
    assert not report.completable
    assert not report.bounded and math.isinf(report.bound_constant)
    assert not report.range_condition
    assert report.a22_min is None


def test_halmos_identity_block():
    rng = rng_for(73)
    a21 = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    report = halmos_complete(np.eye(3), a21)
    assert report.completable and report.bounded and report.range_condition
    assert np.allclose(report.a22_min, a21 @ a21.conj().T, atol=1e-10)
    assert nc.is_psd(report.completion)


def test_halmos_rank_deficient_rejection():
    report = halmos_complete(np.diag([1.0, 0.0]), np.array([[0.0, 1.0]]))
    assert not report.completable
    assert not report.bounded
    assert not report.range_condition


@pytest.mark.parametrize("lam, solvable", [(5e-11, False), (2e-10, True)])
def test_halmos_criteria_agree_next_to_the_cutoff(lam, solvable):
    # lam at 0.5x and 2x the cutoff rank_rel_eps * lambda_max(A11)
    report = halmos_complete(np.diag([1.0, lam]), np.array([[0.3, 1e-5]]))
    assert report.completable == report.bounded == report.range_condition == solvable


def test_halmos_errors():
    with pytest.raises(NotPsd):
        halmos_complete(np.diag([1.0, -1.0]), np.zeros((1, 2)))
    with pytest.raises(ShapeMismatch):
        halmos_complete(np.eye(2), np.zeros((1, 3)))


def test_halmos_three_way_agreement_and_kvn_consistency():
    rng = rng_for(84)
    seen_infeasible = 0
    for _ in range(200):
        k = int(rng.integers(1, 4))
        rows = int(rng.integers(1, 4))
        a11 = random_psd(rng, k, rank=int(rng.integers(0, k + 1)))
        a21 = rng.standard_normal((rows, k)) + 1j * rng.standard_normal((rows, k))
        if rng.uniform() < 0.5:
            # force the range condition so both classes appear
            a21 = a21 @ a11
        report = halmos_complete(a11, a21)
        assert report.completable == report.bounded == report.range_condition
        seen_infeasible += not report.completable
        if report.completable:
            domain = np.zeros((k + rows, k), dtype=complex)
            domain[:k] = np.eye(k)
            p = PartialOperator(domain, np.vstack([a11, a21]))
            a_n = krein_von_neumann(p).a_n
            assert nc.fro(report.completion - a_n) <= 1e-8 * (1.0 + nc.fro(a_n))
            assert loewner_leq(np.zeros_like(a_n), report.completion)
    assert seen_infeasible > 10
