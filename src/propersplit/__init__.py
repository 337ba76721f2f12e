"""Proper single and double splittings of rectangular real matrices.

The package constructs and classifies proper splittings ``A = U - V`` and
proper double splittings ``A = P - R + S``, assembles the block companion
iteration matrix of the two-step scheme, runs the stationary iterations to
the minimum-norm least-squares solution ``A^+ b``, and mechanically checks
the hypotheses and conclusions of the spectral radius comparison theorems
for pairs of double splittings of one semi-monotone matrix.
"""

from .comparison import (
    Branch,
    ComparisonReport,
    HypothesisVerdict,
    TheoremId,
    compare,
    compare_regular_vs_weak,
    compare_weak_vs_regular,
    compare_weak_vs_weak,
)
from .core import (
    DEFAULT_TOLERANCES,
    Spectrum,
    ToleranceConfig,
    as_matrix,
    as_vector,
    eigenvalues,
    geq,
    has_zero_row,
    is_nonneg,
    matrices_equal,
    matrix_rank,
    max_abs_diff,
    nullspace_projector,
    penrose_residuals,
    pinv,
    range_projector,
    spectral_radius,
)
from .double import (
    ConvergenceReport,
    DoubleSplittingClass,
    ProperDoubleSplitting,
    check_convergence,
    classify_double,
    companion_from_blocks,
    induced_single,
    iteration_matrix,
    make_pds,
    sign_residuals,
)
from .errors import (
    DecompositionFailure,
    DecompositionMismatchError,
    DifferentAError,
    HypothesisUnmetError,
    MatrixFormatError,
    NonFiniteError,
    NotInvertibleError,
    NotProperError,
    NotSquareError,
    PropersplitError,
    ShapeMismatchError,
)
from .matrixfile import format_matrix, parse_matrix, read_matrix, read_vector, write_matrix
from .solvers import OVERFLOW_GUARD, IterationTrace, min_norm_lsq, solve_double, solve_single
from .splitting import (
    ProjectorIdentityReport,
    ProperSplitting,
    SemimonotoneEquivalenceReport,
    SplittingClass,
    check_projector_identities,
    check_semimonotone_equivalence,
    classify_single,
    make_proper_splitting,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "ToleranceConfig",
    "DEFAULT_TOLERANCES",
    "Spectrum",
    "as_matrix",
    "as_vector",
    "pinv",
    "penrose_residuals",
    "eigenvalues",
    "spectral_radius",
    "matrix_rank",
    "is_nonneg",
    "geq",
    "range_projector",
    "nullspace_projector",
    "has_zero_row",
    "max_abs_diff",
    "matrices_equal",
    # splittings
    "SplittingClass",
    "ProperSplitting",
    "make_proper_splitting",
    "classify_single",
    "ProjectorIdentityReport",
    "check_projector_identities",
    "SemimonotoneEquivalenceReport",
    "check_semimonotone_equivalence",
    "DoubleSplittingClass",
    "ProperDoubleSplitting",
    "make_pds",
    "sign_residuals",
    "classify_double",
    "companion_from_blocks",
    "iteration_matrix",
    "induced_single",
    "ConvergenceReport",
    "check_convergence",
    # solvers
    "OVERFLOW_GUARD",
    "IterationTrace",
    "min_norm_lsq",
    "solve_single",
    "solve_double",
    # comparison
    "TheoremId",
    "Branch",
    "HypothesisVerdict",
    "ComparisonReport",
    "compare",
    "compare_regular_vs_weak",
    "compare_weak_vs_regular",
    "compare_weak_vs_weak",
    # matrix files
    "parse_matrix",
    "read_matrix",
    "read_vector",
    "format_matrix",
    "write_matrix",
    # errors
    "PropersplitError",
    "NonFiniteError",
    "ShapeMismatchError",
    "NotSquareError",
    "DecompositionFailure",
    "MatrixFormatError",
    "NotProperError",
    "DecompositionMismatchError",
    "HypothesisUnmetError",
    "DifferentAError",
    "NotInvertibleError",
]
