"""Hypothesis-and-conclusion checkers for the spectral radius comparison theorems.

Each checker takes two proper double splittings of the same matrix, evaluates
every hypothesis of its theorem as an entrywise predicate with a violation
residual, computes both companion spectral radii, and reports whether the
conclusion ``rho(W1) <= rho(W2) < 1`` was predicted by the hypotheses and
whether it was actually observed.  The checkers never throw on a false
hypothesis: a report with failed verdicts is itself the product.

``square_corollary=True`` reruns the same pipeline with the classical inverse
in place of the pseudoinverse; it requires a square nonsingular A and
additionally records when ``R1 >= R2`` together with the inverse ordering
implies branch (i).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    _restricted_radius,
    has_zero_row,
    matrix_rank,
    max_abs_diff,
    nonneg_residual,
)
from .double import ProperDoubleSplitting, sign_residuals
from .errors import DifferentAError, NotInvertibleError

__all__ = [
    "TheoremId",
    "Branch",
    "HypothesisVerdict",
    "ComparisonReport",
    "compare_regular_vs_weak",
    "compare_weak_vs_regular",
    "compare_weak_vs_weak",
    "compare",
]


class TheoremId(enum.Enum):
    REGULAR_VS_WEAK = "RegularVsWeak"
    WEAK_VS_REGULAR = "WeakVsRegular"
    WEAK_VS_WEAK = "WeakVsWeak"


class Branch(enum.Enum):
    CONDITION_I = "condition_i"
    CONDITION_II = "condition_ii"
    BOTH = "both"
    NEITHER = "neither"


@dataclass(frozen=True)
class HypothesisVerdict:
    """One named hypothesis with its pass flag and violation residual.

    For ``X >= 0`` style conditions the residual is how far the worst entry
    dips below zero; for range membership it is a projector residual norm;
    for the no-zero-row condition it is the smallest row maximum.  The field
    order is the key order of each item of the CLI's ``hypotheses`` list.
    """

    label: str
    passed: bool
    residual: float


@dataclass(frozen=True)
class ComparisonReport:
    """One theorem check; the field order is the CLI's ``compare`` JSON key order."""

    theorem_id: TheoremId
    square_corollary: bool
    hypothesis_verdicts: tuple[HypothesisVerdict, ...]
    branch_used: Branch
    rho1: float
    rho2: float
    conclusion_predicted: bool
    conclusion_observed: bool
    notes: tuple[str, ...] = field(default=())


def _verdict(label: str, residual: float, cfg: ToleranceConfig) -> HypothesisVerdict:
    return HypothesisVerdict(label, residual <= cfg.nonneg_slack, residual)


def _nonneg_verdict(label: str, m, cfg: ToleranceConfig) -> HypothesisVerdict:
    return _verdict(label, nonneg_residual(m), cfg)


def _geq_verdict(label: str, x, y, cfg: ToleranceConfig) -> HypothesisVerdict:
    return _nonneg_verdict(label, np.asarray(x) - np.asarray(y), cfg)


def _require_invertible(a, cfg: ToleranceConfig) -> None:
    m, n = a.shape
    if m != n:
        raise NotInvertibleError(f"square corollary mode needs a square A, got {a.shape}")
    if matrix_rank(a, cfg) < n:
        raise NotInvertibleError("square corollary mode needs a nonsingular A")


def compare(
    theorem: TheoremId,
    d1: ProperDoubleSplitting,
    d2: ProperDoubleSplitting,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    square_corollary: bool = False,
) -> ComparisonReport:
    """Check the hypotheses and the conclusion of ``theorem`` for (d1, d2).

    Each ``rho_i`` follows the one radius rule, ``core._restricted_radius``,
    on ``range(P_i^+)``, or on the whole space in square-corollary mode.
    """
    if d1.a.shape != d2.a.shape or max_abs_diff(d1.a, d2.a) > cfg.eq_abs_tol:
        raise DifferentAError("both double splittings must decompose the same matrix A")
    a = d1.a
    notes: list[str] = []
    if square_corollary:
        _require_invertible(a, cfg)
        notes.append("square corollary mode: A is invertible, classical inverse used")
        a_inv, p1_inv, p2_inv = (np.linalg.inv(x) for x in (a, d1.p, d2.p))
        pr1, ps1, pr2, ps2 = p1_inv @ d1.r, p1_inv @ d1.s, p2_inv @ d2.r, p2_inv @ d2.s
        basis1 = basis2 = np.eye(a.shape[1])  # the whole space: full companions
    else:
        a_inv, p1_inv = d1.pinvs(cfg)
        p2_inv = d2.pinvs(cfg)[1]
        (pr1, ps1), (pr2, ps2) = d1.blocks(cfg), d2.blocks(cfg)
        basis1, basis2 = d1.rowspace(cfg), d2.rowspace(cfg)
    regular1, weak1 = sign_residuals(p1_inv, d1.r, d1.s, pr1, ps1)
    regular2, weak2 = sign_residuals(p2_inv, d2.r, d2.s, pr2, ps2)

    # the hypotheses the theorem requires; the branch conditions follow them
    required = [_nonneg_verdict("A^+ >= 0", a_inv, cfg)]
    p_order = None  # P1^+ >= P2^+, for the two theorems that require it
    if theorem is TheoremId.REGULAR_VS_WEAK:
        p_order = _geq_verdict("P1^+ >= P2^+", p1_inv, p2_inv, cfg)
        required += [
            _verdict("splitting 1 regular", regular1, cfg),
            _nonneg_verdict("P1 P1^+ >= 0", d1.p @ p1_inv, cfg),
            _verdict("splitting 2 weak regular", weak2, cfg),
            p_order,
        ]
    elif theorem is TheoremId.WEAK_VS_REGULAR:
        e = np.ones(a.shape[0])
        e_residual = float(np.linalg.norm(e - a @ (a_inv @ e)))
        e_in_range = bool(e_residual <= cfg.eq_abs_tol * np.sqrt(a.shape[0]))
        smallest_row_max = float(np.min(np.max(np.abs(p2_inv), axis=1)))
        p_order = _geq_verdict("P1^+ >= P2^+", p1_inv, p2_inv, cfg)
        required += [
            HypothesisVerdict("e in range(A)", e_in_range, e_residual),
            _verdict("splitting 1 weak regular", weak1, cfg),
            _verdict("splitting 2 regular", regular2, cfg),
            HypothesisVerdict("P2^+ has no zero row", not has_zero_row(p2_inv, cfg), smallest_row_max),
            _nonneg_verdict("P2 P2^+ >= 0", d2.p @ p2_inv, cfg),
            p_order,
        ]
    else:  # WEAK_VS_WEAK
        required += [
            _verdict("splitting 1 weak regular", weak1, cfg),
            _verdict("splitting 2 weak regular", weak2, cfg),
            _geq_verdict("P1^+ A >= P2^+ A", p1_inv @ a, p2_inv @ a, cfg),
        ]

    branch_i = _geq_verdict("P1^+ R1 >= P2^+ R2", pr1, pr2, cfg)
    branch_ii = _geq_verdict("P1^+ S1 >= P2^+ S2", ps1, ps2, cfg)
    verdicts = [*required, branch_i, branch_ii]

    if square_corollary and p_order is not None:
        r_order = _geq_verdict("R1 >= R2", d1.r, d2.r, cfg)
        verdicts.append(r_order)
        if r_order.passed and p_order.passed:
            notes.append(
                "branch (i) implied: P1^+ >= P2^+ >= 0 and R1 >= R2 >= 0 force P1^+ R1 >= P2^+ R2"
            )

    if branch_i.passed and branch_ii.passed:
        branch_used = Branch.BOTH
    elif branch_i.passed:
        branch_used = Branch.CONDITION_I
    elif branch_ii.passed:
        branch_used = Branch.CONDITION_II
    else:
        branch_used = Branch.NEITHER

    rho1 = _restricted_radius(basis1, (pr1, ps1), cfg)
    rho2 = _restricted_radius(basis2, (pr2, ps2), cfg)

    predicted = all(v.passed for v in required) and branch_used is not Branch.NEITHER
    observed = rho1 <= rho2 + cfg.spectral_tol and rho2 < 1.0 - cfg.spectral_tol

    return ComparisonReport(
        theorem_id=theorem,
        square_corollary=square_corollary,
        hypothesis_verdicts=tuple(verdicts),
        branch_used=branch_used,
        rho1=rho1,
        rho2=rho2,
        conclusion_predicted=predicted,
        conclusion_observed=observed,
        notes=tuple(notes),
    )


def compare_regular_vs_weak(
    d1: ProperDoubleSplitting,
    d2: ProperDoubleSplitting,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    square_corollary: bool = False,
) -> ComparisonReport:
    """Splitting 1 regular, splitting 2 weak regular, plus P1 P1^+ >= 0."""
    return compare(TheoremId.REGULAR_VS_WEAK, d1, d2, cfg, square_corollary)


def compare_weak_vs_regular(
    d1: ProperDoubleSplitting,
    d2: ProperDoubleSplitting,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    square_corollary: bool = False,
) -> ComparisonReport:
    """Splitting 1 weak regular, splitting 2 regular with the all-ones vector
    in range(A), no zero row in P2^+, and P2 P2^+ >= 0."""
    return compare(TheoremId.WEAK_VS_REGULAR, d1, d2, cfg, square_corollary)


def compare_weak_vs_weak(
    d1: ProperDoubleSplitting,
    d2: ProperDoubleSplitting,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    square_corollary: bool = False,
) -> ComparisonReport:
    """Both splittings weak regular, ordered through P1^+ A >= P2^+ A."""
    return compare(TheoremId.WEAK_VS_WEAK, d1, d2, cfg, square_corollary)
