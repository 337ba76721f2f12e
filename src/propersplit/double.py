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
    as_matrix,
    is_nonneg,
    max_abs_diff,
    pinv,  # noqa: F401  perfbench checks that its tracer wraps pinv here too
    spectral_radius,
)
from .errors import DecompositionMismatchError, ShapeMismatchError
from .splitting import ProperSplitting, _require_proper

__all__ = [
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


def sign_residuals(p_inv, r, s) -> tuple[float, float]:
    """Worst entry violations of the regular (P^+, R, -S >= 0) and weak regular
    (P^+, P^+ R, -P^+ S >= 0) sign tests; p_inv is P^+ or a nonsingular P's inverse."""
    lowest = np.min(p_inv)
    regular = min(lowest, np.min(r), -np.max(s))
    weak = min(lowest, np.min(p_inv @ r), -np.max(p_inv @ s))
    return max(0.0, -float(regular)), max(0.0, -float(weak))


def classify_double(
    d: ProperDoubleSplitting, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> DoubleSplittingClass:
    """Strongest applicable tag from :func:`sign_residuals` on P^+."""
    regular, weak = sign_residuals(d.pinvs(cfg)[1], d.r, d.s)
    if regular <= cfg.nonneg_slack:
        return DoubleSplittingClass.REGULAR
    if weak <= cfg.nonneg_slack:
        return DoubleSplittingClass.WEAK_REGULAR
    return DoubleSplittingClass.PROPER_ONLY


def companion_from_blocks(pr: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Assemble ``[[pr, -ps], [I, 0]]`` with exact identity and zero blocks."""
    n = pr.shape[0]
    if pr.shape != (n, n) or ps.shape != (n, n):
        raise ShapeMismatchError("companion blocks must be square and equally sized")
    w = np.zeros((2 * n, 2 * n))
    w[:n, :n] = pr
    w[:n, n:] = -ps
    w[n:, :n] = np.eye(n)
    return w


def iteration_matrix(
    d: ProperDoubleSplitting, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> np.ndarray:
    """The 2n x 2n companion matrix of the two-step scheme."""
    p_pinv = d.pinvs(cfg)[1]
    return companion_from_blocks(p_pinv @ d.r, p_pinv @ d.s)


def induced_single(d: ProperDoubleSplitting) -> ProperSplitting:
    """The single splitting U = P, V = R - S, built with d; proper-ness and the
    pseudoinverses A^+, P^+ are one and the same for both."""
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
    theorem; it is ``None`` when those hypotheses fail.
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
    a_pinv, p_pinv = d.pinvs(cfg)
    cls = classify_double(d, cfg)
    rho_w = spectral_radius(iteration_matrix(d, cfg), cfg)
    rho_induced = spectral_radius(p_pinv @ (d.r - d.s), cfg)
    semi = is_nonneg(a_pinv, cfg)
    converges = rho_w < 1.0

    if cls is DoubleSplittingClass.PROPER_ONLY:
        agrees = None
    elif abs(rho_w - 1.0) <= cfg.spectral_tol or abs(rho_induced - 1.0) <= cfg.spectral_tol:
        agrees = True
    else:
        agrees = (rho_w < 1.0) == (rho_induced < 1.0)

    guaranteed = True if (semi and cls is not DoubleSplittingClass.PROPER_ONLY) else None
    return ConvergenceReport(cls, rho_w, rho_induced, semi, agrees, guaranteed, converges)
