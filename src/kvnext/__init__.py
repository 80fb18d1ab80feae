"""Finite-dimensional Krein-von Neumann extension toolkit.

Decides when a partially defined positive operator on C^n admits a
positive everywhere-defined extension, constructs the minimal and
maximal extensions, completes partially specified operator kernels and
block matrices, and extends functionals on left ideals of *-algebras
through the GNS construction.
"""

from .commutation import CommutationReport, verify_commutation
from .extension_set import (
    CompletionReport,
    IntervalResult,
    a_max,
    halmos_complete,
    in_interval,
    sample_extensions,
)
from .kernels import (
    Kernel,
    KernelProblem,
    extend_kernel,
    is_positive_definite_kernel,
    kernel_from_operator,
    kernel_preceq,
    operator_from_kernel,
)
from .kvn import (
    KvnResult,
    an_norm,
    krein_von_neumann,
    qform_shift,
    qform_sup,
)
from .numcore import (
    DEFAULT_TOL,
    STRICT_TOL,
    ToleranceConfig,
    is_psd,
    loewner_leq,
    psd_sqrt,
)
from .partial_op import (
    ExtendibilityReport,
    GramSpectrum,
    PartialOperator,
    ValidationReport,
    gram_spectrum,
    hilbert_bound,
    is_extendible,
    my_constant,
    validate,
)
from .schwarz import GapReport, minimal_constant_estimate, schwarz_gap
from .star_algebra import (
    GnsData,
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

__version__ = "0.1.0"
