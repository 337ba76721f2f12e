"""Single proper splittings A = U - V.

A splitting is *proper* when U has the same column space and null space as A.
Construction validates both subspace conditions through their orthogonal
projectors; classification applies the entrywise sign tests that drive the
convergence theory.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    _rank_cutoff,
    as_matrix,
    is_nonneg,
    max_abs_diff,
    pinv,
    spectral_radius,
)
from .errors import HypothesisUnmetError, NotProperError, ShapeMismatchError

__all__ = [
    "SplittingClass",
    "ProperSplitting",
    "make_proper_splitting",
    "classify_single",
    "ProjectorIdentityReport",
    "check_projector_identities",
    "SemimonotoneEquivalenceReport",
    "check_semimonotone_equivalence",
]


class SplittingClass(enum.Enum):
    PROPER_REGULAR = "ProperRegular"
    PROPER_WEAK_REGULAR = "ProperWeakRegular"
    PROPER_ONLY = "ProperOnly"


@dataclass(frozen=True, eq=False)
class ProperSplitting:
    """Validated triple A = U - V with range(U) = range(A), null(U) = null(A)."""

    a: np.ndarray
    u: np.ndarray
    v: np.ndarray
    _pinv_memo: dict = field(default_factory=dict, init=False, repr=False)

    def pinvs(self, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(A^+, U^+)``, computed once per effective rank cutoff."""
        # read-only, because every consumer of the splitting shares them
        key = _rank_cutoff(self.a.shape, cfg)
        if key not in self._pinv_memo:
            pair = tuple(as_matrix(pinv(m, cfg), readonly=True) for m in (self.a, self.u))
            self._pinv_memo[key] = pair
        return self._pinv_memo[key]


def _require_proper(s: ProperSplitting, cfg: ToleranceConfig) -> None:
    rep = check_projector_identities(s, cfg)
    if not rep.passed:
        raise NotProperError(rep.range_residual, rep.rowspace_residual, cfg.eq_abs_tol)


def make_proper_splitting(a, u, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> ProperSplitting:
    """Validate A = U - V with V := U - A; raises NotProperError on failure."""
    a = as_matrix(a, readonly=True)
    u = as_matrix(u, readonly=True)
    if a.shape != u.shape:
        raise ShapeMismatchError(f"A has shape {a.shape} but U has shape {u.shape}")
    s = ProperSplitting(a, u, as_matrix(u - a, readonly=True))
    _require_proper(s, cfg)
    return s


def classify_single(s: ProperSplitting, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> SplittingClass:
    """Strongest applicable tag from the sign tests on U^+, V and U^+ V."""
    u_pinv = s.pinvs(cfg)[1]
    if is_nonneg(u_pinv, cfg):
        if is_nonneg(s.v, cfg):
            return SplittingClass.PROPER_REGULAR
        if is_nonneg(u_pinv @ s.v, cfg):
            return SplittingClass.PROPER_WEAK_REGULAR
    return SplittingClass.PROPER_ONLY


@dataclass(frozen=True)
class ProjectorIdentityReport:
    """Residuals of A A^+ = U U^+ and A^+ A = U^+ U for a proper splitting."""

    range_residual: float
    rowspace_residual: float
    passed: bool


def check_projector_identities(
    s: ProperSplitting, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> ProjectorIdentityReport:
    a_pinv, u_pinv = s.pinvs(cfg)
    range_res = max_abs_diff(s.a @ a_pinv, s.u @ u_pinv)
    rowspace_res = max_abs_diff(a_pinv @ s.a, u_pinv @ s.u)
    passed = range_res <= cfg.eq_abs_tol and rowspace_res <= cfg.eq_abs_tol
    return ProjectorIdentityReport(range_res, rowspace_res, passed)


@dataclass(frozen=True)
class SemimonotoneEquivalenceReport:
    """Joint evaluation of the three equivalent conditions for A^+ >= 0.

    For a proper weak regular splitting the three predicates ``A^+ >= 0``,
    ``A^+ V >= 0`` and ``rho(U^+ V) < 1`` hold or fail together; ``agree``
    records whether the computed verdicts actually did.
    """

    a_pinv_nonneg: bool
    a_pinv_v_nonneg: bool
    iteration_radius: float
    radius_below_one: bool
    agree: bool


def check_semimonotone_equivalence(
    s: ProperSplitting, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> SemimonotoneEquivalenceReport:
    cls = classify_single(s, cfg)
    if cls is SplittingClass.PROPER_ONLY:
        raise HypothesisUnmetError(
            "three-way equivalence requires a proper weak regular splitting"
        )
    a_pinv, u_pinv = s.pinvs(cfg)
    cond_semi = is_nonneg(a_pinv, cfg)
    cond_av = is_nonneg(a_pinv @ s.v, cfg)
    rho = spectral_radius(u_pinv @ s.v, cfg)
    cond_rho = rho < 1.0
    agree = cond_semi == cond_av == cond_rho
    return SemimonotoneEquivalenceReport(cond_semi, cond_av, rho, cond_rho, agree)
