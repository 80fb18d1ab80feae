import numpy as np
import pytest

from kvnext import (
    PartialOperator,
    an_norm,
    hilbert_bound,
    is_extendible,
    is_psd,
    krein_von_neumann,
    loewner_leq,
    my_constant,
    qform_shift,
    qform_sup,
    sample_extensions,
)
from kvnext import numcore as nc
from kvnext.errors import NotExtendible, ResultOutOfRange
from util_gen import (
    dominating_bound,
    qform_oracle,
    random_partial,
    random_psd,
    random_vector,
    restricted_psd,
    rng_for,
)

E1 = np.array([[1.0], [0.0]], dtype=complex)
RUN2 = PartialOperator(E1, np.array([[1.0], [1.0]], dtype=complex))
HALMOS = PartialOperator(E1, np.array([[0.0], [1.0]], dtype=complex))


def test_factorization_empty_domain():
    p = PartialOperator(np.zeros((2, 0)), np.zeros((2, 0)))
    res = krein_von_neumann(p)
    assert res.factorization.r == 0 and res.factorization.j.shape == (2, 0)
    assert np.array_equal(res.a_n, np.zeros((2, 2)))
    assert res.norm == 0.0


def test_factorization_running_example():
    fact = krein_von_neumann(RUN2).factorization
    assert fact.r == 1
    assert np.allclose(fact.j, [[1.0], [1.0]])


def test_factorization_reconstructs_everywhere_defined():
    a = random_psd(rng_for(2), 5, rank=3)
    j = krein_von_neumann(PartialOperator(np.eye(5), a)).factorization.j
    assert np.max(np.abs(j @ j.conj().T - a)) <= 1e-9


def test_krein_examples():
    a = random_psd(rng_for(4), 4)
    res = krein_von_neumann(PartialOperator(np.eye(4), a))
    assert np.max(np.abs(res.a_n - a)) <= 1e-9

    res2 = krein_von_neumann(RUN2)
    assert np.allclose(res2.a_n, [[1.0, 1.0], [1.0, 1.0]], atol=1e-12)

    with pytest.raises(NotExtendible):
        krein_von_neumann(HALMOS)


def test_result_invariants_on_random_instances():
    rng = rng_for(77)
    for _ in range(30):
        p = random_partial(rng, force="extendible")
        res = krein_von_neumann(p)
        assert is_psd(res.a_n)
        # extension property
        assert nc.fro(res.a_n @ p.domain_basis - p.action) <= 1e-8 * (
            1.0 + nc.fro(p.action)
        )
        # factorization agrees with the closed form
        j = res.factorization.j
        assert nc.fro(j @ j.conj().T - res.a_n) <= 1e-8 * (1.0 + nc.fro(res.a_n))
        # j* returns auxiliary-space coordinates of the action on the domain
        lam, u = nc._kept(nc.hermitian_eigen(p.gram()), nc.DEFAULT_TOL)
        coords = np.sqrt(lam)[:, None] * u.conj().T
        assert nc.fro(j.conj().T @ p.domain_basis - coords) <= 1e-7 * (
            1.0 + nc.fro(coords)
        )
        # norm is the top eigenvalue
        top = max(float(np.max(np.linalg.eigvalsh(res.a_n))), 0.0)
        assert res.norm == pytest.approx(top, abs=1e-12)


def test_minimality_against_sampled_extensions():
    rng = rng_for(88)
    for k in range(20):
        p = random_partial(rng, force="extendible")
        res = krein_von_neumann(p)
        bound = dominating_bound(rng, res.a_n)
        for tilde in sample_extensions(p, bound, 5, seed=k):
            assert loewner_leq(res.a_n, tilde)


def test_qform_examples():
    assert qform_sup(RUN2, np.zeros(2)) == 0.0
    assert qform_shift(RUN2, np.zeros(2)) == 0.0
    e2 = np.array([0.0, 1.0])
    assert qform_sup(RUN2, e2) == pytest.approx(1.0, abs=1e-12)
    assert qform_shift(RUN2, e2) == pytest.approx(1.0, abs=1e-12)


def test_qform_agreement_and_oracle():
    rng = rng_for(909)
    for _ in range(25):
        p = random_partial(rng, force="extendible")
        a_n = krein_von_neumann(p).a_n
        y = random_vector(rng, p.n)
        sup_val = qform_sup(p, y)
        shift_val = qform_shift(p, y)
        direct = float(np.real(np.vdot(y, a_n @ y)))
        scale = 1.0 + abs(sup_val)
        assert abs(sup_val - shift_val) <= 1e-8 * scale
        assert abs(sup_val - direct) <= 1e-8 * scale
    for _ in range(8):
        p = random_partial(rng, force="extendible")
        y = random_vector(rng, p.n)
        brute = qform_oracle(p, y, rng, samples=10_000)
        assert qform_sup(p, y) == pytest.approx(brute, rel=1e-4, abs=1e-9)


def test_norm_identity():
    assert an_norm(PartialOperator(np.eye(3), np.eye(3))) == pytest.approx(1.0, abs=1e-12)
    assert an_norm(RUN2) == pytest.approx(2.0, abs=1e-12)
    rng = rng_for(111)
    for _ in range(25):
        p = random_partial(rng, force="extendible")
        norm = an_norm(p)
        bound = hilbert_bound(p)
        assert norm == pytest.approx(bound, rel=1e-6, abs=1e-9)


def test_idempotence():
    rng = rng_for(121)
    for _ in range(10):
        p = random_partial(rng, force="extendible")
        a_n = krein_von_neumann(p).a_n
        again = krein_von_neumann(PartialOperator(np.eye(p.n), a_n)).a_n
        assert nc.fro(again - a_n) <= 1e-9 * (1.0 + nc.fro(a_n))


def test_restrictions_of_psd_operators_are_extendible():
    rng = rng_for(131)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        p = restricted_psd(rng, n, int(rng.integers(0, n + 1)))
        res = krein_von_neumann(p)
        assert is_psd(res.a_n)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the products overflow
def test_results_that_overflow_raise_result_out_of_range():
    # G = 1e-151 against Ad = 1e150: a_n = Ad G+ Ad† and j† j are about 1e451
    p = PartialOperator([[1e-301], [0]], [[1e150], [0]])
    with pytest.raises(ResultOutOfRange) as exc:
        krein_von_neumann(p)
    assert str(exc.value) == "minimal extension a_n = Ad G+ Ad† overflows the float range"
    # not extendible=True with an infinite Hilbert bound
    with pytest.raises(ResultOutOfRange) as exc:
        is_extendible(p)
    assert str(exc.value) == "Hilbert bound: j† j overflows the float range"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the products overflow
def test_forms_and_embeddings_that_overflow_raise_result_out_of_range():
    # G = 1e-131 and v = Ad† e1 = 1e170: v lies in ran G, and v† G+ v is
    # about 1e471, which is not "+inf, off the range of G"
    p = PartialOperator([[1e-301], [0]], [[1e170], [0]])
    y = np.array([1.0, 0.0])
    for fn in (qform_sup, my_constant):
        with pytest.raises(ResultOutOfRange) as exc:
            fn(p, y)
        assert str(exc.value) == "quadratic form v† G+ v overflows the float range"
    # the stationary point c is about 1e301, but 2 Re v† c and c† G c both
    # overflow, and their difference would be NaN
    with pytest.raises(ResultOutOfRange) as exc:
        qform_shift(p, y)
    assert str(exc.value) == "shifted form 2 Re v† c - c† G c overflows the float range"
    # G = 1e-20 against Ad = 1e300: j = Ad U Lam^{-1/2} is about 1e310, and
    # so is every diagonal entry of a_n = j j†
    with pytest.raises(ResultOutOfRange) as exc:
        krein_von_neumann(PartialOperator([[1e-320], [0]], [[1e300], [0]]))
    assert str(exc.value) == "minimal extension a_n = Ad G+ Ad† overflows the float range"
