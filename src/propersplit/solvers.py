"""Stationary iterations attached to proper splittings.

``solve_single`` runs ``x_{i+1} = U^+ V x_i + U^+ b``; ``solve_double`` runs
the two-step recursion ``x_{k+1} = P^+ R x_k - P^+ S x_{k-1} + P^+ b``.  Both
converge to the minimum-norm least-squares solution ``A^+ b`` exactly when the
spectral radius of the corresponding iteration matrix is below one.

Every block maps into ``range(P^+) = span(V_r)`` (``range(U^+)`` for the
single scheme), so every computed iterate is ``V_r z + c`` with c the constant
term and z in R^r.  A gemv on z takes one step, or up to 8 from a precomputed
multi-step map once a run is long, and each block of z rows is lifted to x
once (see :func:`_advance`).  A trace holds the iterates, in full
coordinates, only when the solve is given ``keep_iterates=True``;
otherwise each block is freed once its norms are taken, and the rows are the
full recursion to rounding either way.

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
    """Record of one solver run.

    ``iterates`` is None unless the solve was given ``keep_iterates=True``;
    then it holds the starting vector(s) followed by every computed iterate.
    ``residual_history`` holds one step norm per computed iterate, so its
    length equals ``iterations_used``.  Every field but ``iterates`` is the
    same bit for bit with or without it.  ``converged`` requires both the
    step criterion and closeness to the reference solution ``A^+ b``.
    """

    iterates: list[np.ndarray] | None
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
# The largest p-row step map (see _rows_per_call), in entries: 32 KB.
_MAP_ENTRIES = 4096
# |z_k - z_{k-1}|^2 <= _FLOOR |z_k|^2: the rows are at the rounding floor.
_FLOOR = (64 * np.finfo(float).eps) ** 2


def _push_ratio(ratios: list[float], prev_step: float, step: float) -> None:
    """The tail guard's rate window: after a step that follows a positive,
    finite one, append their ratio, capped at 0.9999, and keep the last
    three ratios."""
    if 0.0 < prev_step < math.inf:
        ratios.append(min(step / prev_step, 0.9999))
        del ratios[:-3]


def _iterate(advance, start, reference, need_small, x0_flag, cfg, keep_iterates) -> IterationTrace:
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

    Rows computed after the stopping row are discarded: with
    ``keep_iterates`` the trace holds ``iterations_used`` iterates after the
    start; without, only a copy of the last row outlives its block, as the
    next block's first step and the limit need it.
    """
    tol = cfg.solve_tol
    iterates = [x.copy() for x in start]
    last = iterates[-1]
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
            np.subtract(rows[0], last, out=diff[0])
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
            if keep_iterates:
                # a copy, so that the rows computed past a stop are freed
                iterates.extend(rows if used == len(rows) else rows[:used].copy())
                last = iterates[-1]
            else:
                last = rows[used - 1].copy()
            left -= used
        limit = last
        distance = float(np.linalg.norm(limit - reference))
        converged = bool(
            step_ok
            and not diverged
            and distance <= 10.0 * tol * (1.0 + np.linalg.norm(reference))
        )
    return IterationTrace(
        iterates=iterates if keep_iterates else None,
        residual_history=residuals,
        converged=converged,
        iterations_used=len(residuals),
        limit=limit,
        reference_solution=reference,
        distance_to_reference=distance,
        diverged=diverged,
        x0_in_nullspace_v=x0_flag,
    )


def _rows_per_call(r: int, h: int) -> int:
    """The largest power of two p <= _FIRST_CHUNK whose p-row map (see
    :func:`_multistep`) has at most _MAP_ENTRIES entries; 1 at r = 0."""
    p = _FIRST_CHUNK if r else 1
    while p > 1 and (p * (r + 1) - 1) * h * (r + 1) > _MAP_ENTRIES:
        p //= 2
    return p


def _multistep(m: np.ndarray, h: int, p: int) -> np.ndarray:
    """The ``(p(r+1) - 1) x h(r+1)`` map from the window of M = m (see
    :func:`_advance`) to the next p rows ``[z, 1, ..., z, 1, z]``: M, then
    each z block M times the h blocks before it, each 1 row ``e_last``.
    M itself where the map is not finite, as when the powers of M overflow."""
    r, width = m.shape
    ext = np.eye(width + p * (r + 1) - 1, width)  # the window, then the map
    ext[width + r :: r + 1, -1] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(width, len(ext), r + 1):
            ext[i : i + r] = m @ ext[i - width : i]
    # column-major: numpy's gemv then runs about 20% faster at these shapes
    return ext[width:].copy(order="F") if np.isfinite(ext).all() else m


def _advance(blocks, basis: np.ndarray, c: np.ndarray, start):
    """``advance(k)`` for :func:`_iterate`, for the recursion
    ``x_{k+1} = B_1 x_k + ... + B_h x_{k-h+1} + c``, whose blocks
    ``(B_1, ..., B_h)`` map into ``range(V_r)``, V_r being ``basis`` (n x r).

    Every computed iterate is ``x = V_r z + c`` with z in R^r.  The step
    matrices are built here, once per solve, and die with it: the r x n
    ``V_r^T B_j`` and the r x h(r+1) ``M = [G_h, 0, ..., G_1, sum_j V_r^T B_j c]``
    with ``G_j = V_r^T B_j V_r``.  The z rows sit in one buffer per solve as
    ``[z, 1]``, so the last h rows are one contiguous window and a step is
    one gemv, ``z_{k+1} = M [z_{k-h+1}, 1, ..., z_k, 1]``.  A block's rows
    follow the previous block's last h rows, which it first copies to the top
    of the buffer.  The first h steps read the starts, which may lie outside
    ``range(V_r)``, through the ``V_r^T B_j``.

    From a run's first _CHUNK block on, one gemv takes p steps (see
    :func:`_rows_per_call`): p rows less the last one's 1 are one contiguous
    slice, which the map of :func:`_multistep` computes from the window
    before them; a block cut by ``max_iter`` ends on a row prefix of the map.
    The rows are then the recursion to rounding, not bit for bit.  Where the
    map is not finite, steps stay one row per gemv, and they go back to one
    once a block's last two z rows agree to within 64 eps relative (see
    _FLOOR): only M's own rounding reaches the fixed point that a stop at
    ``solve_tol = 0`` needs.  The ``(window, out)`` views of a block's calls
    are made once, when a block first reaches that call.  Each block of z
    rows is lifted to x once, by one gemm and one add, into a fresh array.
    With B = 0 every iterate is c bit for bit."""
    reads = [basis.T @ b for b in blocks]
    r, h = basis.shape[1], len(start)
    q = r + 1
    m = np.zeros((r, h * q))
    for j, read in enumerate(reversed(reads)):
        m[:, j * q : j * q + r] = read @ basis
    m[:, -1] = sum(vb @ c for vb in reads)
    buf = np.ones((h + _CHUNK, q))
    rows = buf[h:, :r]  # block row i is buf[h + i]
    xs = list(start)  # the full-coordinate inputs of the first h steps
    first = h
    last = 0  # the previous block's row count
    wide = _rows_per_call(r, h)

    def use(mat):
        """Step with M or a p-row map: call i reads rows ip-h .. ip-1."""
        nonlocal chain, p, windows, outs, pairs
        chain, p, pairs = mat, (len(mat) + 1) // q, []
        strides = (p * buf.strides[0], buf.itemsize)
        windows = np.ndarray((_CHUNK // p, h * q), buffer=buf, strides=strides)
        outs = np.ndarray((_CHUNK // p, p * q - 1), buffer=buf[h:], strides=strides)

    chain = p = windows = outs = pairs = None
    use(m)

    def advance(k):
        nonlocal first, last, wide
        buf[:h] = buf[last : last + h]
        lead = min(first, k)
        first -= lead
        for row in rows[:lead]:
            row[:] = sum(vb @ x for vb, x in zip(reads, reversed(xs)))
            xs.append(basis @ row + c)
            del xs[0]
        if k == _CHUNK and wide > 1:
            use(_multistep(m, h, wide))
            wide = 1
        full, rest = divmod(k, p)  # p > 1 only after the first block: lead = 0
        made = len(pairs)
        if made <= full:
            pairs.extend(zip(windows[made : full + 1], outs[made : full + 1]))
        step = chain.dot  # the bound method skips np.dot's dispatch, about 0.5 us a call
        for window, out in pairs[lead:full]:
            step(window, out=out)
        if rest:
            window, out = pairs[full]
            chain[: rest * q - 1].dot(window, out=out[: rest * q - 1])
        if p > 1 and k > 1:
            z, dz = rows[k - 1], rows[k - 1] - rows[k - 2]
            if dz.dot(dz) <= _FLOOR * z.dot(z):
                use(m)
        last = k
        x = rows[:k] @ basis.T
        x += c
        return x

    return advance


def solve_single(
    s: ProperSplitting,
    b,
    x0=None,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    keep_iterates: bool = False,
) -> IterationTrace:
    """One-step stationary iteration for the single splitting A = U - V.
    The trace holds every iterate only with ``keep_iterates``."""
    return _solve(s, b, [x0], [s.block(cfg)], cfg, keep_iterates)


def solve_double(
    d: ProperDoubleSplitting,
    b,
    x0=None,
    x1=None,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    keep_iterates: bool = False,
) -> IterationTrace:
    """Two-step stationary iteration for the double splitting A = P - R + S.

    The two-step recursion is stationary only when the stacked state
    (x_k, x_{k-1}) stops moving; a single small step can be a transient
    coincidence, so a stop needs two small steps in a row.  The trace holds
    every iterate only with ``keep_iterates``.
    """
    pr, ps = d.blocks(cfg)
    return _solve(d, b, [x0, x1], [pr, -ps], cfg, keep_iterates)


def _solve(s, b, starts, blocks, cfg, keep_iterates) -> IterationTrace:
    """The recursion on ``blocks`` (see :func:`_advance`) from one start per
    block, None being zero; a stop needs one small step per start in a row."""
    m, n = s.a.shape
    b = as_vector(b, length=m)
    start = [np.zeros(n) if x is None else as_vector(x, length=n) for x in starts]
    a_pinv, u_pinv = s.pinvs(cfg)
    advance = _advance(blocks, s.rowspace(cfg), u_pinv @ b, start)
    x0_flag = _in_nullspace(s.v, start[0], cfg)
    return _iterate(advance, start, a_pinv @ b, len(start), x0_flag, cfg, keep_iterates)
