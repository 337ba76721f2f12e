"""Stationary iterations attached to proper splittings.

``solve_single`` runs ``x_{i+1} = U^+ V x_i + U^+ b``; ``solve_double`` runs
the two-step recursion ``x_{k+1} = P^+ R x_k - P^+ S x_{k-1} + P^+ b``.  Both
converge to the minimum-norm least-squares solution ``A^+ b`` exactly when the
spectral radius of the corresponding iteration matrix is below one.

Every block maps into ``range(P^+) = span(V_r)`` (``range(U^+)`` for the
single scheme), so every computed iterate is ``V_r z + c`` with c the constant
term and z in R^r.  Each step is one gemv on z, and each block of z rows is
lifted to x once (see :func:`_advance`); the traces still hold every iterate
in full coordinates, and their rows are the full recursion to rounding.

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


# The steps run back to back into blocks of rows; the norms then run once
# per block.  A block holds as many rows as the run has used so far, at least
# _FIRST_CHUNK and at most _CHUNK, so the blocks end after rows 8, 16, 32, 64
# and then every 64 rows.  A run that stops after k > _FIRST_CHUNK rows has
# computed fewer than 2k, and a long run pays the per-block overhead once per
# _CHUNK rows.
_FIRST_CHUNK = 8
_CHUNK = 64


def _push_ratio(ratios: list[float], prev_step: float, step: float) -> None:
    """The tail guard's rate window: after a step that follows a positive,
    finite one, append their ratio, capped at 0.9999, and keep the last
    three ratios."""
    if 0.0 < prev_step < math.inf:
        ratios.append(min(step / prev_step, 0.9999))
        del ratios[:-3]


def _iterate(advance, start, reference, need_small, x0_flag, cfg) -> IterationTrace:
    """Run ``advance(k)``, which returns the next k iterates as a fresh
    ``(k, n)`` array, from the starting vector(s) ``start``.

    The loop works in blocks of rows (see ``_FIRST_CHUNK``).  It first asks
    ``advance`` for a block.  It then takes every step norm
    ``|x_next - x_curr|`` and every iterate norm ``|x_next|`` of the block at
    once, each the ``sqrt`` of a per-row dot product, as ``np.linalg.norm``
    computes it.  A run stops:

    * diverged, on an iterate whose norm is not <= ``OVERFLOW_GUARD``, which
      includes an iterate with NaN or Inf entries (the loop's arithmetic,
      ``advance`` included, runs with overflow and invalid-operation warnings
      off, so none is raised);
    * at ``cfg.max_iter``;
    * or once ``need_small`` consecutive steps are <= ``cfg.solve_tol`` and the
      geometric tail ``step * r / (1 - r)`` is itself below the tolerance.
      The rate ``r`` is the largest of the last three step ratios (see
      :func:`_push_ratio`): near the limit the remaining error is about that
      tail, which stopping on the raw step alone would leave unpaid when r is
      close to 1.

    A block in which every step is > ``cfg.solve_tol`` and every iterate norm
    is <= ``OVERFLOW_GUARD`` has no row that can stop the run, and nearly
    every block is such a block.  It is booked in bulk: its steps extend the
    history, the small-step count is 0, and the rate window is rebuilt by
    :func:`_push_ratio` from the last four steps, the step before the block
    included.  That is the window a row-by-row pass leaves: a step > tol is
    positive, only a run's first step can be Inf (after a start too large to
    square), and a block of fewer than four rows is a run's last.  Any other
    block runs the rules row by row, so the stop is the one a row-by-row loop
    makes.

    Rows computed after the stopping row are discarded: the trace holds
    ``iterations_used`` iterates after the start.
    """
    tol = cfg.solve_tol
    iterates = [x.copy() for x in start]
    residuals: list[float] = []
    ratios: list[float] = []
    prev_step = math.inf
    step_ok = diverged = False
    small = 0
    left = cfg.max_iter
    with np.errstate(over="ignore", invalid="ignore"):
        while left > 0 and not (step_ok or diverged):
            size = min(max(len(residuals), _FIRST_CHUNK), _CHUNK, left)
            rows = advance(size)
            diff = np.empty_like(rows)
            np.subtract(rows[0], iterates[-1], out=diff[0])
            np.subtract(rows[1:], rows[:-1], out=diff[1:])
            # per row, cblas_ddot as in x.dot(x): the values np.linalg.norm gives
            steps = np.sqrt(np.vecdot(diff, diff))
            norms = np.sqrt(np.vecdot(rows, rows))
            if ((steps > tol) & (norms <= OVERFLOW_GUARD)).all():
                steps = steps.tolist()
                residuals.extend(steps)
                recent = ([prev_step] + steps)[-4:]
                for before, step in zip(recent, recent[1:]):
                    _push_ratio(ratios, before, step)
                prev_step = steps[-1]
                small = 0
                used = size
            else:
                for used, (step, norm_next) in enumerate(zip(steps.tolist(), norms.tolist()), 1):
                    residuals.append(step)
                    if not norm_next <= OVERFLOW_GUARD:
                        diverged = True
                        break
                    _push_ratio(ratios, prev_step, step)
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


def _step_matrices(s: ProperSplitting, name: str, blocks, cfg: ToleranceConfig):
    """Read-only ``(M0, V_r^T B_1, ..., V_r^T B_h)`` for the recursion
    ``x_{k+1} = B_1 x_k + ... + B_h x_{k-h+1} + c``, whose blocks
    ``(B_1, ..., B_h) = blocks()`` map into ``range(V_r)``, V_r being
    ``s.rowspace(cfg)`` (n x r), kept in the splitting's memo under ``name``.

    ``M0 = [G_h, 0, ..., G_1, 0]`` (r x h(r+1)), with ``G_j = V_r^T B_j V_r``,
    is the step matrix of :func:`_advance` before its last column is filled."""

    def make():
        basis = s.rowspace(cfg)
        r = basis.shape[1]
        reads = tuple(basis.T @ b for b in blocks())
        m0 = np.zeros((r, len(reads) * (r + 1)))
        for j, read in enumerate(reversed(reads)):
            m0[:, j * (r + 1) : j * (r + 1) + r] = read @ basis
        return (m0, *reads)

    return s._owned(name, cfg, make)


def _advance(mats, basis: np.ndarray, c: np.ndarray, start):
    """``advance(k)`` for :func:`_iterate`, for ``mats`` from
    :func:`_step_matrices` and the recursion's constant term c.

    Every computed iterate is ``x = V_r z + c`` with z in R^r, since every
    block maps into ``range(V_r)``.  The z rows sit in one buffer per solve as
    ``[z, 1]``, so the last h rows are one contiguous window and a step is
    one gemv, ``z_{k+1} = M [z_{k-h+1}, 1, ..., z_k, 1]``, with
    ``M = [G_h, 0, ..., G_1, sum_j V_r^T B_j c]``.  A block's rows follow the
    previous block's last h rows, which it first copies to the top of the
    buffer; the ``(window, row)`` views of a block row are made once, when a
    block first reaches that row.  The first h steps read the starts, which
    may lie outside ``range(V_r)``, through the r x n ``V_r^T B_j``.  Each
    block of z rows is lifted to x once, by one gemm and one add, into a
    fresh array.  With B = 0 every iterate is c bit for bit."""
    m0, *reads = mats
    r, h = m0.shape[0], len(start)
    m = m0.copy()
    m[:, -1] = sum(vb @ c for vb in reads)
    step = m.dot  # the bound method skips np.dot's dispatch, about 0.5 us a step
    buf = np.ones((h + _CHUNK, r + 1))
    rows = buf[h:, :r]  # block row i is buf[h + i]
    # block row i's window is the h rows before it, [z_{i-h}, 1, ..., z_{i-1}, 1]
    windows = np.ndarray((_CHUNK, h * (r + 1)), buffer=buf, strides=(buf.strides[0], buf.itemsize))
    pairs = []  # (window, row) of block rows 0, 1, ...
    xs = list(start)  # the full-coordinate inputs of the first h steps
    first = h
    last = 0  # the previous block's row count

    def advance(k):
        nonlocal first, last
        buf[:h] = buf[last : last + h]
        lead = min(first, k)
        first -= lead
        for row in rows[:lead]:
            row[:] = sum(vb @ x for vb, x in zip(reads, reversed(xs)))
            xs.append(basis @ row + c)
            del xs[0]
        made = len(pairs)
        if made < k:
            pairs.extend(zip(windows[made:k], rows[made:k]))
        for window, row in pairs[lead:k]:
            step(window, out=row)
        last = k
        x = rows[:k] @ basis.T
        x += c
        return x

    return advance


def solve_single(
    s: ProperSplitting, b, x0=None, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> IterationTrace:
    """One-step stationary iteration for the single splitting A = U - V."""
    m, n = s.a.shape
    b = as_vector(b, length=m)
    x = np.zeros(n) if x0 is None else as_vector(x0, length=n)
    a_pinv, u_pinv = s.pinvs(cfg)
    mats = _step_matrices(s, "step U^+V", lambda: (s.block(cfg),), cfg)
    advance = _advance(mats, s.rowspace(cfg), u_pinv @ b, [x])
    return _iterate(advance, [x], a_pinv @ b, 1, _in_nullspace(s.v, x, cfg), cfg)


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
    mats = _step_matrices(d, "step P^+R, -P^+S", lambda: (pr, -ps), cfg)
    start = [x_prev, x_curr]
    advance = _advance(mats, d.rowspace(cfg), p_pinv @ b, start)
    return _iterate(advance, start, a_pinv @ b, 2, _in_nullspace(d.v, x_prev, cfg), cfg)
