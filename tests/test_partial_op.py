import math

import numpy as np
import pytest

from kvnext import PartialOperator, hilbert_bound, is_extendible, my_constant, validate
from kvnext.errors import InvalidOperator, ShapeMismatch
from util_gen import qform_oracle, random_partial, random_vector, rng_for

E1 = np.array([[1.0], [0.0]], dtype=complex)
RUN2 = PartialOperator(E1, np.array([[1.0], [1.0]], dtype=complex))
HALMOS = PartialOperator(E1, np.array([[0.0], [1.0]], dtype=complex))


def test_validate_examples():
    ok = validate(PartialOperator(E1, np.array([[1.0], [1.0]], dtype=complex)))
    assert ok.ok and np.allclose(ok.gram, [[1.0]])

    bad_sym = validate(PartialOperator(E1, np.array([[1j], [0.0]])))
    assert not bad_sym.ok and bad_sym.failures == ("non_hermitian_gram",)

    bad_psd = validate(PartialOperator(E1, np.array([[-1.0], [0.0]], dtype=complex)))
    assert not bad_psd.ok and bad_psd.failures == ("non_psd_gram",)

    rank_def = validate(
        PartialOperator(np.hstack([E1, E1]), np.zeros((2, 2), dtype=complex))
    )
    assert "rank_deficient_domain" in rank_def.failures

    # three vectors in C^2: the SVD has only two singular values, both large
    wide = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], dtype=complex)
    assert validate(PartialOperator(wide, wide)).failures == ("rank_deficient_domain",)


def test_shape_mismatch_on_construction():
    with pytest.raises(ShapeMismatch):
        PartialOperator(np.eye(2), np.eye(3))


def test_halmos_counterexample_not_extendible():
    rep = is_extendible(HALMOS)
    assert not rep.extendible
    assert math.isinf(rep.hilbert_bound)
    assert rep.witness is not None
    # the witness certifies <A x, y> != 0 while <A x, x> = 0
    assert abs(np.vdot(rep.witness, HALMOS.action[:, 0])) > 0.5


def test_empty_domain_extendible_with_zero_bound():
    p = PartialOperator(np.zeros((3, 0)), np.zeros((3, 0)))
    rep = is_extendible(p)
    assert rep.extendible and rep.hilbert_bound == 0.0 and rep.witness is None


def test_running_example_bound_two():
    rep = is_extendible(RUN2)
    assert rep.extendible
    assert rep.hilbert_bound == pytest.approx(2.0, abs=1e-12)
    assert hilbert_bound(RUN2) == pytest.approx(2.0, abs=1e-12)


def test_identity_bound_one():
    assert hilbert_bound(PartialOperator(np.eye(3), np.eye(3))) == pytest.approx(1.0, abs=1e-12)


def test_my_constant_examples():
    assert my_constant(RUN2, np.zeros(2)) == 0.0
    assert my_constant(HALMOS, np.array([0.0, 1.0])) == math.inf
    assert my_constant(RUN2, np.array([0.0, 1.0])) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ShapeMismatch):
        my_constant(RUN2, np.zeros(3))


def test_ops_reject_invalid_operator():
    bad = PartialOperator(E1, np.array([[-1.0], [0.0]], dtype=complex))
    with pytest.raises(InvalidOperator):
        is_extendible(bad)
    with pytest.raises(InvalidOperator):
        hilbert_bound(bad)


def test_extendibility_matches_bound_finiteness():
    rng = rng_for(101)
    for k in range(120):
        force = "extendible" if k % 2 == 0 else "violating"
        p = random_partial(rng, force=force)
        rep = is_extendible(p)
        assert rep.extendible == (force == "extendible")
        assert rep.extendible == math.isfinite(hilbert_bound(p))


def test_my_constant_finite_on_basis_iff_extendible():
    rng = rng_for(207)
    for k in range(40):
        force = "extendible" if k % 2 == 0 else "violating"
        p = random_partial(rng, force=force)
        finite = all(
            math.isfinite(my_constant(p, np.eye(p.n)[:, i])) for i in range(p.n)
        )
        assert finite == is_extendible(p).extendible


def test_my_constant_against_bruteforce_oracle():
    rng = rng_for(303)
    for _ in range(15):
        p = random_partial(rng, force="extendible")
        y = random_vector(rng, p.n)
        closed = my_constant(p, y)
        brute = qform_oracle(p, y, rng, samples=10_000)
        assert closed == pytest.approx(brute, rel=1e-6, abs=1e-9)


def test_witness_direction_has_infinite_constant():
    rng = rng_for(505)
    for _ in range(15):
        p = random_partial(rng, force="violating")
        rep = is_extendible(p)
        assert not rep.extendible
        assert my_constant(p, rep.witness) == math.inf


def test_my_constant_scaling():
    rng = rng_for(404)
    for _ in range(10):
        p = random_partial(rng, force="extendible")
        y = random_vector(rng, p.n)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        base = my_constant(p, y)
        scaled = my_constant(p, lam * y)
        assert scaled == pytest.approx(abs(lam) ** 2 * base, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("s", [1e150, 1e155, 1e308])
def test_a_large_action_off_the_domain_is_not_extendible(s):
    # D = e1, Ad = (1, s): ker G is empty, but Ad moves off the domain as far
    # as the data-scale cutoff allows; at s = 1e150 the cutoff drops G.  From
    # 1e155 on ||Ad||_F overflows and the witness is decided on Ad 2^-e
    p = PartialOperator(np.array([[1.0], [0.0]]), np.array([[1.0], [s]]))
    report = is_extendible(p)
    assert (report.extendible, report.hilbert_bound) == (False, math.inf)
