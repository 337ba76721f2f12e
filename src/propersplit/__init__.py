"""Proper single and double splittings of rectangular real matrices.

The package constructs and classifies proper splittings ``A = U - V`` and
proper double splittings ``A = P - R + S``, assembles the block companion
iteration matrix of the two-step scheme, runs the stationary iterations to
the minimum-norm least-squares solution ``A^+ b``, and mechanically checks
the hypotheses and conclusions of the spectral radius comparison theorems
for pairs of double splittings of one semi-monotone matrix.
"""

from . import comparison, core, double, errors, matrixfile, solvers, splitting
from .comparison import *  # noqa: F403
from .core import *  # noqa: F403
from .double import *  # noqa: F403
from .errors import *  # noqa: F403
from .matrixfile import *  # noqa: F403
from .solvers import *  # noqa: F403
from .splitting import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *core.__all__,
    *splitting.__all__,
    *double.__all__,
    *solvers.__all__,
    *comparison.__all__,
    *matrixfile.__all__,
    *errors.__all__,
]
