"""Stationary iterations attached to proper splittings.

``solve_single`` runs ``x_{i+1} = U^+ V x_i + U^+ b``; ``solve_double`` runs
the two-step recursion ``x_{k+1} = P^+ R x_k - P^+ S x_{k-1} + P^+ b``.  Both
converge to the minimum-norm least-squares solution ``A^+ b`` exactly when the
spectral radius of the corresponding iteration matrix is below one.

A note on starting vectors: the classical treatment of the single-splitting
scheme both requires the initial vector to avoid the null space of V and
asserts convergence regardless of the initial vector.  The traces therefore
carry an ``x0_in_nullspace_v`` diagnostic but the iteration itself never
rejects a starting point; the default start is the zero vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOLERANCES, ToleranceConfig, as_vector, pinv
from .double import ProperDoubleSplitting
from .splitting import ProperSplitting

__all__ = ["OVERFLOW_GUARD", "IterationTrace", "min_norm_lsq", "solve_single", "solve_double"]

# Iterate norms beyond this mark the run as diverged; the trace stays
# inspectable instead of raising mid-run.
OVERFLOW_GUARD = 1e12


@dataclass(frozen=True, eq=False)
class IterationTrace:
    """Complete record of one solver run.

    ``iterates`` includes the starting vector(s) followed by every computed
    iterate; ``residual_history`` holds one step norm per computed iterate, so
    its length equals ``iterations_used``.  ``converged`` requires both the
    step criterion and closeness to the reference solution ``A^+ b``.
    """

    iterates: list[np.ndarray]
    residual_history: list[float]
    converged: bool
    iterations_used: int
    limit: np.ndarray
    reference_solution: np.ndarray
    distance_to_reference: float
    diverged: bool
    x0_in_nullspace_v: bool


def min_norm_lsq(a, b, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Minimum-norm least-squares solution ``A^+ b``."""
    b = as_vector(b, length=np.asarray(a).shape[0])
    return pinv(a, cfg) @ b


def _in_nullspace(v_mat: np.ndarray, x: np.ndarray, cfg: ToleranceConfig) -> bool:
    return bool(np.linalg.norm(v_mat @ x) <= cfg.solve_tol * (1.0 + np.linalg.norm(x)))


class _TailGuard:
    """Geometric-tail estimate for a linearly converging iteration.

    Near the limit the remaining error is about step * r / (1 - r) where r is
    the contraction rate; stopping on the raw step alone leaves that tail
    unpaid when r is close to 1.  The guard tracks a conservative rate
    estimate (the largest of the last few step ratios) and admits a stop only
    once the projected tail is itself below the tolerance.
    """

    def __init__(self, tol: float):
        self.tol = tol
        self.ratios: list[float] = []
        self.prev_step = np.inf

    def update(self, step: float, scale: float) -> bool:
        if self.prev_step > 0.0 and np.isfinite(self.prev_step):
            self.ratios.append(min(step / self.prev_step, 0.9999))
            del self.ratios[:-3]
        self.prev_step = step
        if step > self.tol:
            return False
        rate = max(self.ratios, default=0.0)
        tail = step * rate / (1.0 - rate)
        return tail <= 5.0 * self.tol * (1.0 + scale) + self.tol


def _iterate(update, start, reference, need_small, x0_flag, cfg) -> IterationTrace:
    """Run ``x_next = update(iterates)`` from the starting vector(s) ``start``.

    A run stops on divergence, at ``cfg.max_iter``, or once the tail guard
    admits a stop after ``need_small`` consecutive steps below the tolerance.
    """
    iterates = [x.copy() for x in start]
    residuals: list[float] = []
    step_ok = diverged = False
    guard = _TailGuard(cfg.solve_tol)
    small = 0
    for _ in range(cfg.max_iter):
        x_next = update(iterates)
        step = float(np.linalg.norm(x_next - iterates[-1]))
        iterates.append(x_next)
        residuals.append(step)
        if not np.all(np.isfinite(x_next)) or np.linalg.norm(x_next) > OVERFLOW_GUARD:
            diverged = True
            break
        small = small + 1 if step <= cfg.solve_tol else 0
        if guard.update(step, float(np.linalg.norm(x_next))) and small >= need_small:
            step_ok = True
            break
    limit = iterates[-1]
    distance = float(np.linalg.norm(limit - reference))
    converged = bool(
        step_ok
        and not diverged
        and distance <= 10.0 * cfg.solve_tol * (1.0 + np.linalg.norm(reference))
    )
    return IterationTrace(
        iterates=iterates,
        residual_history=residuals,
        converged=converged,
        iterations_used=len(residuals),
        limit=limit,
        reference_solution=reference,
        distance_to_reference=distance,
        diverged=diverged,
        x0_in_nullspace_v=x0_flag,
    )


def solve_single(
    s: ProperSplitting, b, x0=None, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> IterationTrace:
    """One-step stationary iteration for the single splitting A = U - V."""
    m, n = s.a.shape
    b = as_vector(b, length=m)
    x = np.zeros(n) if x0 is None else as_vector(x0, length=n)
    a_pinv, u_pinv = s.pinvs(cfg)
    h = u_pinv @ s.v
    c = u_pinv @ b
    x0_flag = _in_nullspace(s.v, x, cfg)
    return _iterate(lambda xs: h @ xs[-1] + c, [x], a_pinv @ b, 1, x0_flag, cfg)


def solve_double(
    d: ProperDoubleSplitting,
    b,
    x0=None,
    x1=None,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> IterationTrace:
    """Two-step stationary iteration for the double splitting A = P - R + S.

    The two-step recursion is stationary only when the stacked state
    (x_k, x_{k-1}) stops moving; a single small step can be a transient
    coincidence, so a stop needs two small steps in a row.
    """
    m, n = d.a.shape
    b = as_vector(b, length=m)
    x_prev = np.zeros(n) if x0 is None else as_vector(x0, length=n)
    x_curr = np.zeros(n) if x1 is None else as_vector(x1, length=n)
    a_pinv, p_pinv = d.pinvs(cfg)
    pr = p_pinv @ d.r
    ps = p_pinv @ d.s
    pb = p_pinv @ b
    x0_flag = _in_nullspace(d.r - d.s, x_prev, cfg)
    return _iterate(
        lambda xs: pr @ xs[-1] - ps @ xs[-2] + pb, [x_prev, x_curr], a_pinv @ b, 2, x0_flag, cfg
    )
