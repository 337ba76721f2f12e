"""Single proper splittings A = U - V.

A splitting is *proper* when U has the same column space and null space as A.
Construction validates both subspace conditions through their orthogonal
projectors, reading rank-r bounds on the projector residuals first and
forming the dense residuals only where a bound does not decide;
classification applies the entrywise sign tests that drive the convergence
theory.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    _kept_svd,
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

    def _factors(self, cfg: ToleranceConfig):
        """``(A^+, U^+, V_r, bounds)`` from U's SVD alone when the splitting
        is proper, ``bounds`` being upper bounds on the two residuals
        :func:`check_projector_identities` reports for that A^+.

        ``U^+ = (V_r / s_r) U_r^T`` is :func:`core.pinv`'s result for U.  For a
        proper splitting ``A^+ = (I - U^+V)^{-1} U^+`` (Berman & Plemmons,
        SIAM J. Numer. Anal. 11 (1974), Theorem 1), whose r x r form is
        ``A^+ = V_r (diag(s_r) - U_r^T V V_r)^{-1} U_r^T``; it is evaluated as
        ``X U_r^T``, ``X = (V_r / s_r) K^{-1}`` with
        ``K = I_r - U_r^T V V_r / s_r``, so that V = 0 gives K = I and
        ``A^+ = U^+`` bit for bit.

        The derived A^+ is kept when A leaves ``range(U)`` by no more than
        rounding (see :func:`_leaves_range`), K is nonsingular, and A A^+ and
        A^+ A equal U's projectors to ``_DERIVED_TOL``.  That last test reads
        :func:`_residual_bounds`, which take no m x m or n x n product; the
        dense residuals of :func:`_projector_residuals` are formed, and
        decide, only where a bound does not clear ``_DERIVED_TOL``, so the
        decision is the one the dense residuals alone would make.
        Otherwise, under every rank cutoff alike, A^+ is A's own
        pseudoinverse, :func:`core.pinv`, and ``bounds`` are its dense
        residuals.  Without the range test the derived A^+ passes both
        identities for the non-proper ``A = I``, ``U = diag(1, 0)``, and for
        any A that gains a small singular value outside U's range and row
        space.
        """

        def make():
            a_pinv, u_pinv, v_r, bounds = self._from_u_svd(cfg)
            if a_pinv is not None and bounds.max() <= _DERIVED_TOL:
                return a_pinv, u_pinv, v_r, bounds
            if a_pinv is not None:
                bounds = _projector_residuals(self, a_pinv, u_pinv)
            if a_pinv is None or max(bounds) > _DERIVED_TOL:
                a_pinv = pinv(self.a, cfg)
                bounds = _projector_residuals(self, a_pinv, u_pinv)
            # the kept A^+'s own residuals: check_projector_identities' values
            residuals = np.array(bounds)
            self._owned("residuals", cfg, lambda: (residuals,))
            return a_pinv, u_pinv, v_r, residuals

        return self._owned("pinvs", cfg, make)

    def _from_u_svd(self, cfg: ToleranceConfig):
        """``(A^+, U^+, V_r, bounds)`` from U's SVD, A^+ and ``bounds`` None
        where A leaves U's range or K is singular, ``bounds`` otherwise
        :func:`_residual_bounds`' pair for the derived A^+.  U's singular
        vectors die on return.

        A, X and ``T = U_r^T A`` enter the range test and the bounds divided,
        or for X multiplied, by the power of two at ``max |A|``.  That is
        exact, it leaves every projector product as it is, and it keeps the
        squared norms of their rows and columns finite."""
        u_r, s_r, v_r = _kept_svd(self.u, cfg)
        scaled = v_r / s_r
        e = -math.frexp(np.abs(self.a).max())[1]
        a_s = np.ldexp(self.a, e)
        t_s = u_r.T @ a_s
        a_pinv = bounds = None
        if not _leaves_range(a_s, u_r, t_s, v_r, cfg):
            k = np.eye(s_r.size) - (u_r.T @ self.v) @ v_r / s_r
            try:
                x = np.linalg.solve(k.T, scaled.T).T
            except np.linalg.LinAlgError:
                pass
            else:
                a_pinv = x @ u_r.T
                bounds = _residual_bounds(a_s, np.ldexp(x, -e), t_s, u_r, s_r, v_r)
        return a_pinv, scaled @ u_r.T, np.ascontiguousarray(v_r), bounds

    def pinvs(self, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(A^+, U^+)`` from one SVD, U's (see :meth:`_factors`).

        Where the splitting is proper under the rank cutoff A's rank is U's,
        and A's own SVD runs only when the A^+ derived from U's fails its
        check."""
        return self._factors(cfg)[:2]

    def rowspace(self, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
        """Read-only n x r orthonormal basis of ``range(U^+)``, U's kept right
        singular vectors from the SVD that forms ``U^+``."""
        return self._factors(cfg)[2]

    def block(self, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
        """Read-only ``U^+ V``, the iteration matrix of the one-step scheme."""
        return self._owned("U^+V", cfg, lambda: (self.pinvs(cfg)[1] @ self.v,))[0]

    def radius(self, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
        """``rho(U^+ V)`` by ``core._restricted_radius``, taken on each call."""
        return _restricted_radius(self.rowspace(cfg), (self.block(cfg),), cfg)


# The A^+ derived from U's SVD is kept only when it makes A A^+ and A^+ A equal
# U's orthogonal projectors to within this, however loose eq_abs_tol is.
_DERIVED_TOL = 1e-10


def _leaves_range(
    a_s: np.ndarray, u_r: np.ndarray, t_s: np.ndarray, v_r: np.ndarray, cfg: ToleranceConfig
) -> bool:
    """Whether the Frobenius norm of ``A - U_r T``, ``T = U_r^T A``, how far A
    leaves ``range(U)`` and a bound on every singular value A has beyond U's
    r, exceeds what A's own SVD would not count as rank: the rank cutoff, or
    its default ``max(m, n) eps`` if that is smaller, times ``|A v_1|``, v_1
    the first column of V_r, a lower bound on A's largest singular value.  A
    leak up to that bound moves A^+ by no more than rounding.  ``a_s`` and
    ``t_s`` are A and T divided by the power of two at ``max |A|``, so that
    the squared norms stay finite."""
    res = u_r @ t_s
    leak = np.linalg.norm(np.subtract(a_s, res, out=res))
    top = np.linalg.norm(a_s @ v_r[:, 0]) if v_r.shape[1] else 0.0
    shape = a_s.shape
    cutoff = min(_rank_cutoff(shape, cfg), _rank_cutoff(shape, DEFAULT_TOLERANCES))
    return not leak <= cutoff * top


def _largest_norm(x: np.ndarray, axis: int = -1) -> float:
    """Largest 2-norm of x's rows (``axis=-1``) or columns (``axis=0``)."""
    return math.sqrt(np.vecdot(x, x, axis=axis).max())


def _residual_bounds(
    a_s: np.ndarray,
    x_s: np.ndarray,
    t_s: np.ndarray,
    u_r: np.ndarray,
    s_r: np.ndarray,
    v_r: np.ndarray,
) -> np.ndarray:
    """Upper bounds on the range and row space residuals that
    :func:`_projector_residuals` forms for ``A^+ = X U_r^T``, from m x n x r
    and n x r x r products: about 19 M multiply-adds at 300 x 240 rank 120,
    against the dense products' 78 M.  ``a_s``, ``x_s`` and ``t_s`` are A, X and
    ``T = U_r^T A`` scaled by one power of two as :meth:`_from_u_svd` says.

    With ``Y = V_r^T X``, ``A A^+ - U_r U_r^T = (A X - U_r) U_r^T`` has no
    entry above the largest row norm of ``A X - U_r``, as U_r's rows have
    norm at most 1, and ``A^+ A - V_r V_r^T = V_r (Y T - V_r^T) + (X - V_r Y) T``
    none above the largest column norm of ``Y T - V_r^T`` plus the largest
    row norm of ``X - V_r Y`` times the largest column norm of T.

    Each bound then adds an allowance, ``gamma = max(m, n) eps`` times the
    sizes that scale the rounding of the dense products and of the bound's
    own: entrywise ``|fl(B C) - B C| <= gamma_k |B| |C|`` (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., Lemma 3.5), whose
    entries are at most a row norm of B times a column norm of C, with
    ``|U_r|`` of 2-norm at most ``sqrt(r)``; and ``kappa = s_1 / s_r`` for
    ``U U^+`` and ``U^+ U``, which equal U's projectors only to within the
    SVD's backward error divided by ``s_r``.  T's column norms stand in for
    A's, which the range test puts within rounding of them."""
    m, n = a_s.shape
    r = s_r.size
    gamma = max(m, n) * np.finfo(float).eps
    root = math.sqrt(r)
    kappa = s_r[0] / s_r[-1] if r else 0.0
    f = a_s @ x_s
    f -= u_r
    y = v_r.T @ x_s
    g = y @ t_s
    g -= v_r.T
    x_rows = np.vecdot(x_s, x_s)
    tau = _largest_norm(t_s, axis=0)
    range_allowance = 2 * _largest_norm(a_s) * math.sqrt(x_rows.sum()) + (1 + root) * kappa
    rowspace_allowance = (1 + 2 * root) * (math.sqrt(x_rows.max()) * tau + kappa)
    range_bound = _largest_norm(f) + gamma * range_allowance
    rowspace_bound = _largest_norm(g, axis=0) + _largest_norm(x_s - v_r @ y) * tau
    return np.array([range_bound, rowspace_bound + gamma * rowspace_allowance])


def _require_proper(s: ProperSplitting, cfg: ToleranceConfig) -> None:
    """Accept where both of the kept A^+'s residual bounds clear
    ``eq_abs_tol``; elsewhere decide, and raise, on the residuals
    themselves."""
    if s._factors(cfg)[3].max() <= cfg.eq_abs_tol:
        return
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
    """Both residuals for ``s.pinvs(cfg)``, the dense products formed on the
    first request under each rank cutoff and kept.  Construction forms them
    only where a bound of :func:`_residual_bounds` does not decide, and then
    keeps them for this report."""
    residuals = s._owned(
        "residuals", cfg, lambda: (np.array(_projector_residuals(s, *s.pinvs(cfg))),)
    )[0]
    range_res, rowspace_res = map(float, residuals)
    passed = range_res <= cfg.eq_abs_tol and rowspace_res <= cfg.eq_abs_tol
    return ProjectorIdentityReport(range_res, rowspace_res, passed)


def _projector_residuals(s: ProperSplitting, a_pinv, u_pinv) -> tuple[float, float]:
    return max_abs_diff(s.a @ a_pinv, s.u @ u_pinv), max_abs_diff(a_pinv @ s.a, u_pinv @ s.u)


@dataclass(frozen=True)
class SemimonotoneEquivalenceReport:
    """Joint evaluation of the three equivalent conditions for A^+ >= 0.

    For a proper weak regular splitting the three predicates ``A^+ >= 0``,
    ``A^+ V >= 0`` and ``rho(U^+ V) < 1`` hold or fail together; ``agree``
    records whether the computed verdicts actually did.  ``splitting_class``
    is the class the check found, so a caller needs no second
    :func:`classify_single`.  ``iteration_radius`` is the splitting's own
    :meth:`ProperSplitting.radius`.  The field order is
    the key order of the CLI's ``classify single`` JSON document, where the
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
    rho = s.radius(cfg)
    cond_rho = rho < 1.0
    agree = cond_semi == cond_av == cond_rho
    return SemimonotoneEquivalenceReport(cls, cond_semi, cond_av, rho, cond_rho, agree)
