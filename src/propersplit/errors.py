"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
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


class PropersplitError(Exception):
    """Base class for every error this package raises deliberately."""


class NonFiniteError(PropersplitError, ValueError):
    """A matrix or vector contains NaN or infinite entries."""


class ShapeMismatchError(PropersplitError, ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NotSquareError(PropersplitError, ValueError):
    """A square matrix was required."""


class DecompositionFailure(PropersplitError, ArithmeticError):
    """An underlying matrix factorization did not converge."""


class MatrixFormatError(PropersplitError, ValueError):
    """A matrix file could not be parsed."""


class NotProperError(PropersplitError, ValueError):
    """U does not preserve the range and null space of A.

    Carries both projector residuals so callers can tell whether the range
    condition, the null-space condition, or both failed.
    """

    def __init__(self, range_residual: float, nullspace_residual: float, tol: float):
        self.range_residual = float(range_residual)
        self.nullspace_residual = float(nullspace_residual)
        parts = []
        if self.range_residual > tol:
            parts.append(f"range projector residual {self.range_residual:.3e}")
        if self.nullspace_residual > tol:
            parts.append(f"row-space projector residual {self.nullspace_residual:.3e}")
        detail = ", ".join(parts) if parts else "unknown subspace failure"
        super().__init__(f"not a proper splitting: {detail} (tolerance {tol:.3e})")


class DecompositionMismatchError(PropersplitError, ValueError):
    """A != P - R + S for the supplied double splitting."""

    def __init__(self, residual: float, tol: float):
        self.residual = float(residual)
        super().__init__(
            f"A != P - R + S: entrywise residual {self.residual:.3e} exceeds {tol:.3e}"
        )


class HypothesisUnmetError(PropersplitError, ValueError):
    """A theorem checker was invoked on input violating its preconditions."""


class DifferentAError(PropersplitError, ValueError):
    """Comparison requires both double splittings to split the same matrix."""


class NotInvertibleError(PropersplitError, ValueError):
    """Square-corollary mode requires a square, nonsingular matrix."""
