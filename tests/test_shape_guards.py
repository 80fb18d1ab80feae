import re

import numpy as np
import pytest

from kvnext import (
    Kernel,
    KernelProblem,
    LeftIdeal,
    PartialOperator,
    StarAlgebra,
    a_max,
    f_max,
    fn_on_positive,
    halmos_complete,
    minimal_constant_estimate,
    validate_algebra,
)
from kvnext.errors import ShapeMismatch
from kvnext.star_algebra import functional_gram
from util_gen import m2_algebra, m2_first_column_ideal

M2 = m2_algebra()
M2_IDEAL = m2_first_column_ideal()
ZEROS = np.zeros((2, 2, 2))
E1 = np.eye(3)[:, :1]
RUN2 = PartialOperator([[1.0], [0.0]], [[1.0], [1.0]])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: StarAlgebra(np.zeros((2, 2, 3)), np.eye(2)),
         "structure tensor must be (m, m, m), got (2, 2, 3)"),
        (lambda: StarAlgebra(ZEROS, np.eye(3)), "involution must be 2 square, got (3, 3)"),
        (lambda: StarAlgebra(ZEROS, np.eye(2), [1.0, 0.0, 0.0]), "unit must have length 2"),
        (lambda: validate_algebra(M2, LeftIdeal(np.eye(3))), "ideal basis must have 4 rows, got 3"),
        (lambda: functional_gram(M2, [1.0, 0.0, 0.0]), "functional must have length 4, got 3"),
        (lambda: f_max(M2, M2_IDEAL, [1.0, 0.0], [1.0, 0.0, 0.0]),
         "bound functional must have length 4"),
        (lambda: fn_on_positive(M2, M2_IDEAL, [1.0, 0.0], [1.0, 0.0]), "x must have length 4, got 2"),
        (lambda: Kernel(np.zeros((2, 3, 1, 1))),
         "kernel blocks must have shape (m, m, n, n), got (2, 3, 1, 1)"),
        (lambda: KernelProblem(m=2, n=2, sub=PartialOperator(E1, E1)),
         "underlying operator lives on C^3, expected C^4"),
        (lambda: minimal_constant_estimate([], 10, 0), "need at least one operator"),
        (lambda: minimal_constant_estimate([np.eye(2), np.eye(3)], 10, 0),
         "A_1 has shape (3, 3), expected (2, 2)"),
        (lambda: a_max(RUN2, np.eye(3)), "bound must be 2 x 2, got (3, 3)"),
        (lambda: halmos_complete(np.ones((2, 3)), np.ones((1, 3))), "A11 must be square, got (2, 3)"),
        (lambda: PartialOperator(ZEROS, ZEROS), "domain_basis must be 2-dimensional, got ndim=3"),
    ],
    ids=[
        "mult", "invol", "unit", "ideal-rows", "functional-gram", "f-max-bound", "fn-on-positive-x",
        "kernel-blocks", "kernel-problem", "schwarz-empty", "schwarz-shapes", "a-max-bound",
        "halmos-a11", "as-matrix-ndim",
    ],
)
def test_each_shape_guard_names_its_mismatch(call, message):
    with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
        call()
