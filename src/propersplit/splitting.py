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
    _pinv_rowspace,
    _rank_cutoff,
    _restricted_radius,
    as_matrix,
    is_nonneg,
    max_abs_diff,
    pinv,
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
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def _owned(self, name: str, cfg: ToleranceConfig, make):
        """``make()``'s read-only matrices, made once per effective rank cutoff."""
        # read-only, because every consumer of the splitting shares them
        key = (name, _rank_cutoff(self.a.shape, cfg))
        if key not in self._memo:
            mats = make()
            for m in mats:
                m.flags.writeable = False
            self._memo[key] = mats
        return self._memo[key]

    def _factors(self, cfg: ToleranceConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        def make():
            u_pinv, basis = _pinv_rowspace(self.u, cfg)
            return as_matrix(pinv(self.a, cfg)), as_matrix(u_pinv), basis

        return self._owned("pinvs", cfg, make)

    def pinvs(self, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(A^+, U^+)``."""
        return self._factors(cfg)[:2]

    def rowspace(self, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
        """Read-only n x r orthonormal basis of ``range(U^+)``, U's kept right
        singular vectors from the SVD that forms ``U^+``."""
        return self._factors(cfg)[2]

    def block(self, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
        """Read-only ``U^+ V``, the iteration matrix of the one-step scheme."""
        return self._owned("U^+V", cfg, lambda: (self.pinvs(cfg)[1] @ self.v,))[0]


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
    if is_nonneg(s.pinvs(cfg)[1], cfg):
        if is_nonneg(s.v, cfg):
            return SplittingClass.PROPER_REGULAR
        if is_nonneg(s.block(cfg), cfg):
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
    records whether the computed verdicts actually did.  ``splitting_class``
    is the class the check found, so a caller needs no second
    :func:`classify_single`.  When 0 < r < n, r = rank(U),
    ``iteration_radius`` is the midpoint of a Collatz-Wielandt bracket from
    power iteration on the n x n ``U^+ V`` when ``U^+ V >= 0`` holds exactly,
    and otherwise is taken on the r x r restriction of ``U^+ V`` to
    ``range(U^+)`` (see ``core._restricted_radius``).  The field order is the
    key order of the CLI's ``classify single`` JSON document, where the
    class comes before the projector residuals.
    """

    splitting_class: SplittingClass
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
    a_pinv = s.pinvs(cfg)[0]
    cond_semi = is_nonneg(a_pinv, cfg)
    cond_av = is_nonneg(a_pinv @ s.v, cfg)
    rho = _restricted_radius(s.rowspace(cfg), (s.block(cfg),), cfg)
    cond_rho = rho < 1.0
    agree = cond_semi == cond_av == cond_rho
    return SemimonotoneEquivalenceReport(cls, cond_semi, cond_av, rho, cond_rho, agree)
