import numpy as np
import pytest

from kvnext import (
    Kernel,
    KernelProblem,
    PartialOperator,
    extend_kernel,
    is_positive_definite_kernel,
    kernel_from_operator,
    kernel_preceq,
    krein_von_neumann,
    operator_from_kernel,
    sample_extensions,
)
from kvnext import numcore as nc
from kvnext.errors import NotExtendible, NotPsd, ShapeMismatch
from util_gen import random_psd, rng_for


def scalar_kernel(entries) -> Kernel:
    arr = np.asarray(entries, dtype=complex)
    return Kernel(blocks=arr.reshape(arr.shape[0], arr.shape[1], 1, 1))


def test_single_point_assembly():
    k = Kernel(blocks=np.array([[[[2.0]]]]))
    assert np.allclose(operator_from_kernel(k), [[2.0]])


def test_scalar_ones_assembly():
    k = scalar_kernel([[1.0, 1.0], [1.0, 1.0]])
    assert np.allclose(operator_from_kernel(k), np.ones((2, 2)))


def test_round_trips_are_exact():
    rng = rng_for(3)
    for _ in range(20):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        mat = random_psd(rng, m * n)
        k = kernel_from_operator(mat, m, n)
        assert np.array_equal(operator_from_kernel(k), mat)
        k2 = kernel_from_operator(operator_from_kernel(k), m, n)
        assert np.array_equal(k.blocks, k2.blocks)
        assert nc.hermitian_residual(operator_from_kernel(k)) <= 1e-12


def test_kernel_from_operator_rejects():
    with pytest.raises(NotPsd):
        kernel_from_operator(np.array([[0.0, 1.0], [1.0, 0.0]]), 2, 1)
    with pytest.raises(ShapeMismatch):
        kernel_from_operator(np.eye(3), 2, 2)


def test_identity_extraction():
    k = kernel_from_operator(np.eye(4), 2, 2)
    assert np.allclose(k.blocks[0, 0], np.eye(2))
    assert np.allclose(k.blocks[1, 1], np.eye(2))
    assert np.allclose(k.blocks[0, 1], np.zeros((2, 2)))


def test_positive_definiteness_examples():
    assert is_positive_definite_kernel(scalar_kernel(np.zeros((3, 3))))
    indefinite = scalar_kernel([[0.0, 1.0], [1.0, 0.0]])
    assert not is_positive_definite_kernel(indefinite)
    rng = rng_for(5)
    k = kernel_from_operator(random_psd(rng, 6), 3, 2)
    assert is_positive_definite_kernel(k)


def test_extend_kernel_empty_prescription():
    sub = PartialOperator(np.zeros((4, 0)), np.zeros((4, 0)))
    k = extend_kernel(KernelProblem(m=2, n=2, sub=sub))
    assert np.allclose(k.blocks, 0.0)


def test_extend_kernel_running_example():
    sub = PartialOperator(
        np.array([[1.0], [0.0]], dtype=complex), np.array([[1.0], [1.0]], dtype=complex)
    )
    k = extend_kernel(KernelProblem(m=2, n=1, sub=sub))
    assert np.allclose(k.blocks.reshape(2, 2), np.ones((2, 2)), atol=1e-12)


def test_extend_kernel_recovers_full_prescription():
    rng = rng_for(7)
    mat = random_psd(rng, 6)
    sub = PartialOperator(np.eye(6, dtype=complex), mat)
    k = extend_kernel(KernelProblem(m=3, n=2, sub=sub))
    assert np.max(np.abs(operator_from_kernel(k) - mat)) <= 1e-9


def test_extend_kernel_infeasible():
    sub = PartialOperator(
        np.array([[1.0], [0.0]], dtype=complex), np.array([[0.0], [1.0]], dtype=complex)
    )
    with pytest.raises(NotExtendible):
        extend_kernel(KernelProblem(m=2, n=1, sub=sub))


def test_preceq_examples():
    rng = rng_for(9)
    k = kernel_from_operator(random_psd(rng, 4), 2, 2)
    zero = Kernel(blocks=np.zeros((2, 2, 2, 2)))
    assert kernel_preceq(k, k)
    assert kernel_preceq(zero, k)
    with pytest.raises(ShapeMismatch):
        kernel_preceq(k, kernel_from_operator(np.eye(2), 2, 1))


def test_minimal_extension_below_sampled_completions():
    rng = rng_for(11)
    for trial in range(15):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        dim = m * n
        full = random_psd(rng, dim)
        d = int(rng.integers(0, dim + 1))
        basis = np.linalg.qr(
            rng.standard_normal((dim, d)) + 1j * rng.standard_normal((dim, d))
        )[0] if d else np.zeros((dim, 0))
        sub = PartialOperator(basis, full @ basis)
        problem = KernelProblem(m=m, n=n, sub=sub)
        minimal = extend_kernel(problem)
        assert is_positive_definite_kernel(minimal)
        assert nc.hermitian_residual(operator_from_kernel(minimal)) <= 1e-9
        bound = krein_von_neumann(sub).a_n + (1.0 + trial % 3) * np.eye(dim)
        for s in sample_extensions(sub, bound, 4, seed=trial):
            completion = kernel_from_operator(s, m, n)
            assert kernel_preceq(minimal, completion)
