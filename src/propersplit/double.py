"""Proper double splittings A = P - R + S and their companion iteration matrix.

The two-step scheme driven by such a splitting has the 2n x 2n block
companion matrix ``W = [[P^+ R, -P^+ S], [I, 0]]``; its spectral radius
decides convergence.  The splitting also induces the single splitting
``U = P, V = R - S``, whose iteration radius is equivalent to ``rho(W) < 1``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    _restricted_radius,
    as_matrix,
    companion_from_blocks,
    is_nonneg,
    max_abs_diff,
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
    "induced_single",
    "ConvergenceReport",
    "check_convergence",
]


class DoubleSplittingClass(enum.Enum):
    REGULAR = "RegularProperDouble"
    WEAK_REGULAR = "WeakRegularProperDouble"
    PROPER_ONLY = "ProperDoubleOnly"


@dataclass(frozen=True, eq=False)
class ProperDoubleSplitting:
    """Validated quadruple A = P - R + S with P proper over A."""

    a: np.ndarray
    p: np.ndarray
    r: np.ndarray
    s: np.ndarray
    _induced: ProperSplitting = field(init=False, repr=False)

    def __post_init__(self):
        v = as_matrix(self.r - self.s, readonly=True)
        object.__setattr__(self, "_induced", ProperSplitting(self.a, self.p, v))

    def pinvs(self, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(A^+, P^+)``, those of the induced splitting U = P."""
        return self._induced.pinvs(cfg)

    def rowspace(self, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
        """Read-only orthonormal basis of ``range(P^+)``, the induced splitting's."""
        return self._induced.rowspace(cfg)

    def blocks(self, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(P^+ R, P^+ S)``, kept beside the induced splitting's own."""
        p_pinv = self.pinvs(cfg)[1]
        return self._induced._owned("P^+R, P^+S", cfg, lambda: (p_pinv @ self.r, p_pinv @ self.s))


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
    mismatch = max_abs_diff(a, p - r + s)
    if mismatch > cfg.eq_abs_tol:
        raise DecompositionMismatchError(mismatch, cfg.eq_abs_tol)
    d = ProperDoubleSplitting(a, p, r, s)
    _require_proper(d._induced, cfg)
    return d


def sign_residuals(p_inv, r, s, pr, ps) -> tuple[float, float]:
    """Worst entry violations of the regular (P^+, R, -S >= 0) and weak regular
    (P^+, P^+ R, -P^+ S >= 0) sign tests; p_inv is P^+ or a nonsingular P's
    inverse, and pr, ps are its products with R and S."""
    lowest = nonneg_residual(p_inv)
    regular = max(lowest, nonneg_residual(r), nonneg_residual(-s))
    weak = max(lowest, nonneg_residual(pr), nonneg_residual(-ps))
    return regular, weak


def classify_double(
    d: ProperDoubleSplitting, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> DoubleSplittingClass:
    """Strongest applicable tag from :func:`sign_residuals` on P^+."""
    regular, weak = sign_residuals(d.pinvs(cfg)[1], d.r, d.s, *d.blocks(cfg))
    if regular <= cfg.nonneg_slack:
        return DoubleSplittingClass.REGULAR
    if weak <= cfg.nonneg_slack:
        return DoubleSplittingClass.WEAK_REGULAR
    return DoubleSplittingClass.PROPER_ONLY


def iteration_matrix(
    d: ProperDoubleSplitting, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> np.ndarray:
    """The 2n x 2n companion matrix of the two-step scheme."""
    return companion_from_blocks(*d.blocks(cfg))


def induced_single(d: ProperDoubleSplitting) -> ProperSplitting:
    """The single splitting U = P, V = R - S, built with d; proper-ness, the
    pseudoinverses A^+, P^+ and the memo holding them are one and the same
    for both."""
    return d._induced


@dataclass(frozen=True)
class ConvergenceReport:
    """Spectral radii of the companion matrix and the induced single splitting.

    ``biconditional_agrees`` records whether ``rho(W) < 1`` and
    ``rho(P^+(R-S)) < 1`` came out on the same side of 1 (a spectral_tol band
    around 1 counts as inconclusive-but-consistent); it is ``None`` when the
    splitting is not at least weak regular, where no equivalence is claimed.
    ``guaranteed_convergent`` is True when A is semi-monotone and the class is
    weak regular or stronger, the hypotheses under which convergence is a
    theorem; it is ``None`` when those hypotheses fail.  Both radii follow
    the one radius rule, ``core._restricted_radius``, on ``range(P^+)``.
    The field order is the key order of the CLI's ``classify double`` JSON
    document.
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
    """Classify d and take both radii on ``range(P^+)`` by the rule of
    ``core._restricted_radius``."""
    cls = classify_double(d, cfg)
    basis = d.rowspace(cfg)
    rho_w = _restricted_radius(basis, d.blocks(cfg), cfg)
    rho_induced = _restricted_radius(basis, (induced_single(d).block(cfg),), cfg)
    semi = is_nonneg(d.pinvs(cfg)[0], cfg)
    converges = rho_w < 1.0

    if cls is DoubleSplittingClass.PROPER_ONLY:
        agrees = None
    elif abs(rho_w - 1.0) <= cfg.spectral_tol or abs(rho_induced - 1.0) <= cfg.spectral_tol:
        agrees = True
    else:
        agrees = (rho_w < 1.0) == (rho_induced < 1.0)

    guaranteed = True if (semi and cls is not DoubleSplittingClass.PROPER_ONLY) else None
    return ConvergenceReport(cls, rho_w, rho_induced, semi, agrees, guaranteed, converges)
