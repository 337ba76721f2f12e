"""Proper double splittings A = P - R + S and their companion iteration matrix.

The two-step scheme driven by such a splitting has the 2n x 2n block
companion matrix ``W = [[P^+ R, -P^+ S], [I, 0]]``; its spectral radius
decides convergence.  The splitting is, term for term, the proper single
splitting ``U = P, V = R - S``, whose ``rho(U^+ V) < 1`` is, for a weak
regular splitting, equivalent to ``rho(W) < 1``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    _restricted_radius,
    as_matrix,
    companion_from_blocks,
    is_nonneg,
    nonneg_residual,
    pinv,  # noqa: F401  perfbench checks that its tracer wraps pinv here too
)
from .errors import DecompositionMismatchError, ShapeMismatchError
from .splitting import ProperSplitting, _require_proper

__all__ = [
    "DoubleSplittingClass",
    "ProperDoubleSplitting",
    "make_pds",
    "sign_residuals",
    "classify_double",
    "iteration_matrix",
    "ConvergenceReport",
    "check_convergence",
]


class DoubleSplittingClass(enum.Enum):
    REGULAR = "RegularProperDouble"
    WEAK_REGULAR = "WeakRegularProperDouble"
    PROPER_ONLY = "ProperDoubleOnly"


@dataclass(frozen=True, eq=False)
class ProperDoubleSplitting(ProperSplitting):
    """Validated quadruple A = P - R + S with P proper over A.

    It is its induced single splitting ``U = P, V = R - S``, with R and S
    kept beside it: proper-ness, ``cfg``, ``pinvs``, ``rowspace``, ``radius``
    (``rho(P^+(R - S))``) and the memo are those of that splitting, and
    :meth:`block` is that splitting's ``U^+ V``, taken as ``P^+R - P^+S``
    from :meth:`blocks`.  :meth:`companion_radius` is ``rho(W)``."""

    r: np.ndarray
    s: np.ndarray

    @property
    def p(self) -> np.ndarray:
        """P, which is U."""
        return self.u

    def blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(P^+ R, P^+ S)``."""
        p_pinv = self.pinvs()[1]
        return self._owned("P^+R, P^+S", lambda: (p_pinv @ self.r, p_pinv @ self.s))

    def block(self) -> np.ndarray:
        """Read-only ``P^+R - P^+S`` from :meth:`blocks`: one subtraction in
        place of a third n x m x n product, equal to ``P^+ (R - S)`` up to
        rounding."""
        return self._owned("U^+V", lambda: (np.subtract(*self.blocks()),))[0]

    def companion_radius(self) -> float:
        """``rho(W)`` by ``core._restricted_radius``, taken on each call."""
        return _restricted_radius(self.rowspace(), self.blocks())


def make_pds(a, p, r, s, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> ProperDoubleSplitting:
    """Validate the decomposition and the subspace conditions on P."""
    a = as_matrix(a, readonly=True)
    p = as_matrix(p, readonly=True)
    r = as_matrix(r, readonly=True)
    s = as_matrix(s, readonly=True)
    if not (a.shape == p.shape == r.shape == s.shape):
        raise ShapeMismatchError(
            f"A, P, R, S must share one shape, got {a.shape}, {p.shape}, {r.shape}, {s.shape}"
        )
    # |A - (P - R + S)| in one scratch buffer, in max_abs_diff's order
    gap = np.subtract(p, r)
    gap += s
    np.subtract(a, gap, out=gap)
    mismatch = float(np.abs(gap, out=gap).max())
    del gap  # as large as A: not kept alive while _require_proper factors P
    if mismatch > cfg.eq_abs_tol:
        raise DecompositionMismatchError(mismatch, cfg.eq_abs_tol)
    d = ProperDoubleSplitting(a, p, as_matrix(r - s, readonly=True), cfg, r, s)
    _require_proper(d)
    return d


def sign_residuals(d: ProperDoubleSplitting) -> tuple[float, float]:
    """Worst entry violations of the regular (P^+, R, -S >= 0) and weak regular
    (P^+, P^+ R, -P^+ S >= 0) sign tests."""
    pr, ps = d.blocks()
    lowest = nonneg_residual(d.pinvs()[1])
    regular = max(lowest, nonneg_residual(d.r), nonneg_residual(-d.s))
    weak = max(lowest, nonneg_residual(pr), nonneg_residual(-ps))
    return regular, weak


def classify_double(
    d: ProperDoubleSplitting, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> DoubleSplittingClass:
    """Strongest applicable tag from :func:`sign_residuals`."""
    regular, weak = sign_residuals(d)
    if regular <= cfg.nonneg_slack:
        return DoubleSplittingClass.REGULAR
    if weak <= cfg.nonneg_slack:
        return DoubleSplittingClass.WEAK_REGULAR
    return DoubleSplittingClass.PROPER_ONLY


def iteration_matrix(d: ProperDoubleSplitting) -> np.ndarray:
    """The 2n x 2n companion matrix of the two-step scheme."""
    return companion_from_blocks(*d.blocks())


@dataclass(frozen=True)
class ConvergenceReport:
    """Spectral radii of the companion matrix and the induced single splitting.

    ``biconditional_agrees`` records whether ``rho(W) < 1`` and
    ``rho(P^+(R-S)) < 1`` came out on the same side of 1 (a spectral_tol band
    around 1 counts as inconclusive-but-consistent); it is ``None`` when the
    splitting is not at least weak regular, where no equivalence is claimed.
    ``guaranteed_convergent`` is True when A is semi-monotone and the class is
    weak regular or stronger, the hypotheses under which convergence is a
    theorem; it is ``None`` when those hypotheses fail.  The radii are the
    splitting's own :meth:`~ProperDoubleSplitting.companion_radius` and
    ``radius``.  The field order is the key order of the CLI's
    ``classify double`` JSON document.
    """

    splitting_class: DoubleSplittingClass
    rho_w: float
    rho_induced: float
    semi_monotone: bool
    biconditional_agrees: bool | None
    guaranteed_convergent: bool | None
    converges: bool


def check_convergence(
    d: ProperDoubleSplitting, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> ConvergenceReport:
    """Classify d and take its two radii, ``rho(W)`` first."""
    cls = classify_double(d, cfg)
    rho_w = d.companion_radius()
    rho_induced = d.radius()
    semi = is_nonneg(d.pinvs()[0], cfg)
    converges = rho_w < 1.0

    if cls is DoubleSplittingClass.PROPER_ONLY:
        agrees = None
    elif abs(rho_w - 1.0) <= cfg.spectral_tol or abs(rho_induced - 1.0) <= cfg.spectral_tol:
        agrees = True
    else:
        agrees = (rho_w < 1.0) == (rho_induced < 1.0)

    guaranteed = True if (semi and cls is not DoubleSplittingClass.PROPER_ONLY) else None
    return ConvergenceReport(cls, rho_w, rho_induced, semi, agrees, guaranteed, converges)
