"""Hypothesis-and-conclusion checks for the spectral radius comparison theorems.

The one entry point, ``compare(theorem, d1, d2, cfg, square_corollary)``,
takes a :class:`TheoremId` and two proper double splittings of the same
matrix, evaluates every hypothesis of that theorem as an entrywise predicate
with a violation residual, computes both companion spectral radii, and
reports whether the conclusion ``rho(W1) <= rho(W2) < 1`` was predicted by
the hypotheses and whether it was actually observed.  It never throws on a
false hypothesis: a report with failed verdicts is itself the product.  Each
theorem asks ``A^+ >= 0``, one of two branch conditions
(``P1^+ R1 >= P2^+ R2`` or ``P1^+ S1 >= P2^+ S2``), and:

- ``REGULAR_VS_WEAK``: splitting 1 regular, splitting 2 weak regular, plus
  ``P1 P1^+ >= 0`` and ``P1^+ >= P2^+``;
- ``WEAK_VS_REGULAR``: splitting 1 weak regular, splitting 2 regular with
  the all-ones vector in range(A), no zero row in ``P2^+``,
  ``P2 P2^+ >= 0`` and ``P1^+ >= P2^+``;
- ``WEAK_VS_WEAK``: both splittings weak regular, ordered through
  ``P1^+ A >= P2^+ A``.

``square_corollary=True`` requires a square nonsingular A, whose inverses
the splittings already hold.  Where the theorem orders ``P1^+ >= P2^+`` (not
weak-vs-weak) it adds ``R1 >= R2`` and notes when both imply branch (i).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
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


def compare(
    theorem: TheoremId,
    d1: ProperDoubleSplitting,
    d2: ProperDoubleSplitting,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    square_corollary: bool = False,
) -> ComparisonReport:
    """Check the hypotheses and the conclusion of ``theorem`` for (d1, d2).

    Each ``rho_i`` is ``d_i.companion_radius()``.  Square-corollary mode
    checks that A is square and nonsingular, A's rank being P1's, and, where
    the theorem orders ``P1^+ >= P2^+``, adds the ``R1 >= R2`` check.  It
    factors nothing new: for such an A, and a proper P_i, ``A^+`` and
    ``P_i^+`` are the classical inverses.
    """
    if d1.a.shape != d2.a.shape or max_abs_diff(d1.a, d2.a) > cfg.eq_abs_tol:
        raise DifferentAError("both double splittings must decompose the same matrix A")
    a = d1.a
    notes: list[str] = []
    if square_corollary:
        if a.shape[0] != a.shape[1]:
            raise NotInvertibleError(f"square corollary mode needs a square A, got {a.shape}")
        if d1.rowspace().shape[1] < a.shape[1]:
            raise NotInvertibleError("square corollary mode needs a nonsingular A")
        notes.append("square corollary mode: A is invertible, classical inverse used")
    a_inv, p1_inv = d1.pinvs()
    p2_inv = d2.pinvs()[1]
    (pr1, ps1), (pr2, ps2) = d1.blocks(), d2.blocks()
    regular1, weak1 = sign_residuals(d1)
    regular2, weak2 = sign_residuals(d2)

    # the hypotheses the theorem requires; the branch conditions follow them
    required = [_nonneg_verdict("A^+ >= 0", a_inv, cfg)]
    if theorem is TheoremId.REGULAR_VS_WEAK:
        required += [
            _verdict("splitting 1 regular", regular1, cfg),
            _nonneg_verdict("P1 P1^+ >= 0", d1.p @ p1_inv, cfg),
            _verdict("splitting 2 weak regular", weak2, cfg),
        ]
    elif theorem is TheoremId.WEAK_VS_REGULAR:
        e = np.ones(a.shape[0])
        e_residual = float(np.linalg.norm(e - a @ (a_inv @ e)))
        e_in_range = bool(e_residual <= cfg.eq_abs_tol * np.sqrt(a.shape[0]))
        smallest_row_max = float(np.min(np.max(np.abs(p2_inv), axis=1)))
        required += [
            HypothesisVerdict("e in range(A)", e_in_range, e_residual),
            _verdict("splitting 1 weak regular", weak1, cfg),
            _verdict("splitting 2 regular", regular2, cfg),
            HypothesisVerdict(
                "P2^+ has no zero row", smallest_row_max > cfg.nonneg_slack, smallest_row_max
            ),
            _nonneg_verdict("P2 P2^+ >= 0", d2.p @ p2_inv, cfg),
        ]
    else:  # WEAK_VS_WEAK
        required += [
            _verdict("splitting 1 weak regular", weak1, cfg),
            _verdict("splitting 2 weak regular", weak2, cfg),
            _geq_verdict("P1^+ A >= P2^+ A", p1_inv @ a, p2_inv @ a, cfg),
        ]
    p_order = None  # P1^+ >= P2^+, which the other two theorems require last
    if theorem is not TheoremId.WEAK_VS_WEAK:
        p_order = _geq_verdict("P1^+ >= P2^+", p1_inv, p2_inv, cfg)
        required.append(p_order)

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

    rho1 = d1.companion_radius()
    rho2 = d2.companion_radius()

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
