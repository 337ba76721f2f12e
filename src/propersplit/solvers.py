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

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOLERANCES, ToleranceConfig, as_vector, pinv
from .double import ProperDoubleSplitting
from .splitting import ProperSplitting

__all__ = ["OVERFLOW_GUARD", "IterationTrace", "min_norm_lsq", "solve_single", "solve_double"]

# An iterate norm that is not <= this (NaN included) marks the run as
# diverged; the trace stays inspectable instead of raising mid-run.
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
    """``|V x| <= solve_tol * (1 + |x|)``.  Where ``V x`` or a squared norm
    overflows, x and V are first divided by powers of two ``2^e`` and ``2^f``
    at their largest entries, which is exact, so that ``|V x|`` stays finite;
    the test is then divided by ``2^(e + f)``."""
    tol = cfg.solve_tol
    with np.errstate(over="ignore", invalid="ignore"):
        lhs, norm_x = np.linalg.norm(v_mat @ x), np.linalg.norm(x)
        if math.isfinite(lhs) and math.isfinite(norm_x):
            return bool(lhs <= tol * (1.0 + norm_x))
        e = math.frexp(np.max(np.abs(x)))[1]
        f = math.frexp(np.max(np.abs(v_mat)))[1]
        y = np.ldexp(x, -e)
        lhs = np.linalg.norm(np.ldexp(v_mat, -f) @ y)
        return bool(lhs <= tol * np.ldexp(np.ldexp(1.0, -e) + np.linalg.norm(y), -f))


# The updates run back to back into blocks of rows; the norms then run once
# per block.  A block holds as many rows as the run has used so far, at least
# _FIRST_CHUNK and at most _CHUNK, so the blocks end after rows 8, 16, 32, 64
# and then every 64 rows.  A run that stops after k > _FIRST_CHUNK rows has
# computed fewer than 2k, and a long run pays the per-block overhead once per
# _CHUNK rows.
_FIRST_CHUNK = 8
_CHUNK = 64


def _iterate(update, start, reference, need_small, x0_flag, cfg) -> IterationTrace:
    """Run ``update(row, x_curr, x_prev)``, which writes the next iterate into
    ``row``, from the starting vector(s) ``start`` (``x_prev`` is None for a
    one-step scheme).

    The loop works in blocks of rows (see ``_FIRST_CHUNK``).  It first runs
    the updates back to back into a fresh ``(k, n)`` block.  It then takes every
    step norm ``|x_next - x_curr|`` and every iterate norm ``|x_next|`` of the
    block at once, each the ``sqrt`` of a per-row dot product, as
    ``np.linalg.norm`` computes it, and applies the stop rules row by row.  A
    run stops:

    * diverged, on an iterate whose norm is not <= ``OVERFLOW_GUARD``, which
      includes an iterate with NaN or Inf entries (the loop's arithmetic runs
      with overflow and invalid-operation warnings off, so none is raised);
    * at ``cfg.max_iter``;
    * or once ``need_small`` consecutive steps are <= ``cfg.solve_tol`` and the
      geometric tail ``step * r / (1 - r)`` is itself below the tolerance.
      The rate ``r`` is the largest of the last three step ratios, each capped
      at 0.9999: near the limit the remaining error is about that tail, which
      stopping on the raw step alone would leave unpaid when r is close to 1.

    Rows computed after the stopping row are discarded: the trace holds
    ``iterations_used`` iterates after the start.
    """
    tol = cfg.solve_tol
    iterates = [x.copy() for x in start]
    x_prev = iterates[-2] if len(iterates) > 1 else None
    x_curr = iterates[-1]
    residuals: list[float] = []
    ratios: list[float] = []
    prev_step = math.inf
    step_ok = diverged = False
    small = 0
    left = cfg.max_iter
    with np.errstate(over="ignore", invalid="ignore"):
        while left > 0 and not (step_ok or diverged):
            size = min(max(len(residuals), _FIRST_CHUNK), _CHUNK, left)
            rows = np.empty((size, x_curr.size))
            before = x_curr
            for row in rows:
                update(row, x_curr, x_prev)
                x_prev, x_curr = x_curr, row
            diff = np.empty_like(rows)
            np.subtract(rows[0], before, out=diff[0])
            np.subtract(rows[1:], rows[:-1], out=diff[1:])
            # per row, cblas_ddot as in x.dot(x): the values np.linalg.norm gives
            steps = np.sqrt(np.vecdot(diff, diff)).tolist()
            norms = np.sqrt(np.vecdot(rows, rows)).tolist()
            for used, (step, norm_next) in enumerate(zip(steps, norms), 1):
                residuals.append(step)
                if not norm_next <= OVERFLOW_GUARD:
                    diverged = True
                    break
                if 0.0 < prev_step < math.inf:
                    ratios.append(min(step / prev_step, 0.9999))
                    del ratios[:-3]
                prev_step = step
                if step > tol:
                    small = 0
                else:
                    small += 1
                    rate = max(ratios, default=0.0)
                    tail = step * rate / (1.0 - rate)
                    if tail <= 5.0 * tol * (1.0 + norm_next) + tol and small >= need_small:
                        step_ok = True
                        break
            # a copy, so that the rows computed past a stop are freed
            iterates.extend(rows if used == len(rows) else rows[:used].copy())
            left -= used
        limit = iterates[-1]
        distance = float(np.linalg.norm(limit - reference))
        converged = bool(
            step_ok
            and not diverged
            and distance <= 10.0 * tol * (1.0 + np.linalg.norm(reference))
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
    h = s.block(cfg)
    c = u_pinv @ b
    x0_flag = _in_nullspace(s.v, x, cfg)

    def update(row, x_curr, _):
        # in place, with the rounding of h @ x_curr + c
        h.dot(x_curr, out=row)
        row += c

    return _iterate(update, [x], a_pinv @ b, 1, x0_flag, cfg)


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
    pr, ps = d.blocks(cfg)
    pb = p_pinv @ b

    def update(row, x_curr, x_prev):
        # in place, with the rounding of pr @ x_curr - ps @ x_prev + pb
        pr.dot(x_curr, out=row)
        row -= ps.dot(x_prev)
        row += pb

    x0_flag = _in_nullspace(d.v, x_prev, cfg)
    return _iterate(update, [x_prev, x_curr], a_pinv @ b, 2, x0_flag, cfg)
