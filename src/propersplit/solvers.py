"""Stationary iterations attached to proper splittings.

``solve_single`` runs ``x_{i+1} = U^+ V x_i + U^+ b``; ``solve_double`` runs
the two-step recursion ``x_{k+1} = P^+ R x_k - P^+ S x_{k-1} + P^+ b``.  Both
converge to the minimum-norm least-squares solution ``A^+ b`` exactly when the
spectral radius of the corresponding iteration matrix is below one, for the
double scheme ``W = [[P^+R, -P^+S], [I, 0]]``; the solver reads its first
block row as the splitting owns it, ``(P^+R, P^+S)`` (see :func:`_advance`).

Every block maps into ``range(P^+) = span(V_r)`` (``range(U^+)`` for the
single scheme), so every computed iterate is ``V_r z + c`` with c the constant
term and z in R^r.  The solve carries that state and nothing wider: a gemv on
z takes one step, or up to 8 from a precomputed multi-step map once a run is
long, and the stop rules take every step norm and iterate norm on rows of
r + 1 numbers (see :func:`_advance`), which equal the full-coordinate norms
to rounding.  Only what leaves the solve is lifted to R^n: the limit, one
row, and, when the solve is given ``keep_iterates=True``, each block of kept
iterates.  A trace holds the iterates, in full coordinates, only on that
request.

A note on starting vectors: the classical treatment of the single-splitting
scheme both requires the initial vector to avoid the null space of V and
asserts convergence regardless of the initial vector.  The traces therefore
carry an ``x0_in_nullspace_v`` diagnostic but the iteration itself never
rejects a starting point; the default start is the zero vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

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
    ``residual_history`` holds one step norm ``|x_k - x_{k-1}|`` per computed
    iterate, so its length equals ``iterations_used``; the solvers take it in
    range coordinates, where it equals the norm of the difference of the
    lifted iterates to rounding.  The stop is decided from
    ``residual_history`` and the stopping row's norm alone (see
    ``solvers._stops``).  ``limit`` is the last iterate (with
    ``keep_iterates``, ``iterates[-1]`` itself).  Every field but ``iterates``
    is the same bit for bit with or without it.  ``converged`` requires both
    the step criterion and closeness to the reference solution ``A^+ b``.
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
    """``|V x| <= solve_tol * (1 + |x|)`` divided by ``2^(e + f + k)``, the
    powers of two at the largest entries of x, V (f >= -1021, so
    ``x 2^-(e + f)`` stays finite) and ``y = V x 2^-(e + f)``: exact short of
    underflow in y, and ``|y 2^-k|`` is 0 only when y is.  The right side is
    0 at ``solve_tol = 0``, so that case asks whether y is exactly 0; where
    it passes the float range it is inf, above every finite left side."""
    e = math.frexp(np.max(np.abs(x)))[1]
    f = max(math.frexp(max(v_mat.max(), -v_mat.min()))[1], -1021)
    x_norm = float(np.linalg.norm(np.ldexp(x, -e)))
    y = v_mat @ np.ldexp(x, -(e + f))
    k = math.frexp(np.max(np.abs(y)))[1]
    lhs = np.linalg.norm(np.ldexp(y, -k))
    tol = cfg.solve_tol
    try:
        rhs = math.ldexp(tol, -(e + f + k)) + math.ldexp(tol * x_norm, -(f + k))
    except OverflowError:
        rhs = math.inf
    return bool(lhs <= rhs)


# The steps run back to back into blocks of rows; the norms then run once
# per block.  A block holds as many rows as the run has used so far, at least
# _FIRST_CHUNK and at most _CHUNK, so the blocks end after rows 8, 16, 32, 64,
# 128 and then every 128 rows.  A run that stops after k > _FIRST_CHUNK rows
# has computed fewer than 2k, and a long run pays the per-block overhead once
# per _CHUNK rows.
_FIRST_CHUNK = 8
_CHUNK = 128
# The largest p-row step map (see _rows_per_call), in entries: 32 KB.
_MAP_ENTRIES = 4096
# |z_k - z_{k-1}|^2 <= _FLOOR |z_k|^2: the rows are at the rounding floor.
_FLOOR = (64 * np.finfo(float).eps) ** 2


def _stops(residuals: list[float], norm: float, tol: float, need_small: int) -> bool:
    """The stop rule on the step history, read at its last step, whose
    iterate has norm ``norm``: the last ``need_small`` steps are all
    ``<= tol`` (a NaN step counts as one), and the geometric tail
    ``step * rate / (1 - rate)`` of the last step is below the tolerance.

    ``rate`` is the largest of the last three step ratios, each
    ``min(s_i / s_{i-1}, 0.9999)`` over the steps whose predecessor is
    positive and finite, 0 where there is none: near the limit the
    remaining error is about that tail, which stopping on the raw step alone
    would leave unpaid when the rate is close to 1.  The walk back reads a
    few entries only: a zero step admits a stop, so two zeros in a row stop
    any run, and only a run's first step can be Inf or NaN (after a start too
    large to square)."""
    if len(residuals) < need_small or any(s > tol for s in residuals[-need_small:]):
        return False
    # the pairs (s_{i-1}, s_i) from the last step back, read lazily
    back = zip(islice(reversed(residuals), 1, None), reversed(residuals))
    ratios = (min(s / p, 0.9999) for p, s in back if 0.0 < p < math.inf)
    rate = max(islice(ratios, 3), default=0.0)
    return residuals[-1] * rate / (1.0 - rate) <= 5.0 * tol * (1.0 + norm) + tol


def _iterate(advance, lift, start, reference, need_small, x0_flag, cfg, keep_iterates) -> IterationTrace:
    """Run ``advance(k)``, which computes the next k iterates, from the
    starting vector(s) ``start``.

    The loop does not depend on the coordinates the iterates are computed
    in.  ``advance(k)`` returns ``(rules, rows)``, both valid until the next
    call: ``rows`` holds the k new iterates as state rows, and ``rules`` is
    the ``(k + 1, d)`` array of the rows the stop rules read, the iterate
    before the k new ones first: ``|rules[i] - rules[i - 1]|`` is the step
    into the i-th new iterate and ``|rules[i]|`` its norm.  ``lift(rows)``
    returns state rows as a fresh ``(k, n)`` array of iterates.  Where the
    state is the iterate itself, ``rules`` is the previous row and then
    ``rows``, and ``lift`` is a copy.

    The loop works in blocks of rows (see ``_FIRST_CHUNK``).  It first asks
    ``advance`` for a block.  It then takes every step norm and every iterate
    norm of the block at once, each the ``sqrt`` of a per-row dot product, as
    ``np.linalg.norm`` computes it.  A run stops:

    * diverged, on an iterate whose norm is not <= ``OVERFLOW_GUARD``, which
      includes an iterate with NaN or Inf entries (the loop's arithmetic,
      ``advance`` included, runs with overflow and invalid-operation warnings
      off, so none is raised);
    * at ``cfg.max_iter``;
    * or where :func:`_stops` admits a stop: ``need_small`` consecutive steps
      <= ``cfg.solve_tol`` and a geometric tail below the tolerance.

    The history is all the state the rules keep.  A row whose step is >
    ``cfg.solve_tol`` and whose norm is <= ``OVERFLOW_GUARD`` can stop
    nothing, and nearly every row is such a row, so the rows before a block's
    first other row extend the history in one call; from that row on the
    rules run row by row.

    Rows computed after the stopping row are discarded.  The limit, the
    last row, is lifted on its own, so that it is the same bit for bit with
    or without kept iterates.  With ``keep_iterates`` each block's rows up to
    the stop are lifted too, and the limit takes the last one's place: the
    trace holds ``iterations_used`` iterates after the start.
    """
    tol = cfg.solve_tol
    iterates = [x.copy() for x in start] if keep_iterates else None
    residuals: list[float] = []
    step_ok = diverged = False
    with np.errstate(over="ignore", invalid="ignore"):
        while len(residuals) < cfg.max_iter and not (step_ok or diverged):
            size = min(max(len(residuals), _FIRST_CHUNK), _CHUNK, cfg.max_iter - len(residuals))
            rules, rows = advance(size)
            ahead = rules[1:]
            diff = ahead - rules[:-1]
            # per row, cblas_ddot as in x.dot(x): the values np.linalg.norm gives
            steps = np.sqrt(np.vecdot(diff, diff))
            norms = np.sqrt(np.vecdot(ahead, ahead))
            calm = (steps > tol) & (norms <= OVERFLOW_GUARD)  # False on a NaN
            used = size if calm.all() else int(calm.argmin())
            residuals.extend(steps[:used].tolist())
            for step, norm in zip(steps[used:].tolist(), norms[used:].tolist()):
                used += 1
                residuals.append(step)
                if not norm <= OVERFLOW_GUARD:
                    diverged = True
                    break
                if not step > tol and _stops(residuals, norm, tol, need_small):
                    step_ok = True
                    break
            if keep_iterates:
                iterates.extend(lift(rows[:used]))
            last = rows[used - 1 : used]
        limit = lift(last)[0]
        if keep_iterates:
            iterates[-1] = limit
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
    """``(advance, lift)`` for :func:`_iterate`, for the recursion
    ``x_{k+1} = B_1 x_k - B_2 x_{k-1} + c`` (``B_1 x_k + c`` for one block)
    from the starts ``start``, on the first block row of the iteration
    matrix as the splitting owns it, ``(U^+V,)`` or ``(P^+R, P^+S)`` for
    ``W = [[P^+R, -P^+S], [I, 0]]``; the blocks map into ``range(V_r)``, V_r
    being ``basis`` (n x r).  The sign ``s_j`` of B_j (``s_2 = -1``) goes on
    the r x r and r x 1 products made here, not on B_2: a product with -1.0
    and ``x + (-y) == x - y`` are exact, so they are those of ``-B_2``.

    Every computed iterate is ``x = V_r z + c`` with z in R^r, and z is all
    the state a solve carries.  The z rows sit in one buffer per solve as
    ``[z, 1]``, so the last h rows are one contiguous window and a step is
    one gemv, ``z_{k+1} = M [z_{k-h+1}, 1, ..., z_k, 1]``, with the
    r x h(r+1) ``M = [G_h, 0, ..., G_1, V_r^T sum_j s_j B_j c]`` and
    ``G_j = s_j V_r^T B_j V_r``, built here, once per solve.  A block's rows
    follow the previous block's last h rows, which it first copies to the top
    of the buffer.

    The starts may lie outside ``range(V_r)``, and their rows in the window
    are 0, their 1s included.  Each of the first h steps adds what M misses
    of them, r numbers made here: ``s_j V_r^T B_j x`` for each start x it
    reads, less ``s_j V_r^T B_j c`` from the second step on, where M adds
    that for every j.  The first step so reads the starts only as the full
    recursion does, and nothing else of the starts outlives this call.

    The stop rules read ``[z + V_r^T c, 0]``, a z row plus one offset: the
    norm of x and, differenced, the steps, both to rounding, on r + 1
    numbers a row.  The row before a run's first is ``[V_r^T x, -|e|]`` for
    the last start ``x = V_r V_r^T x + e``, so that the first step squares
    to ``|z_h + V_r^T c - V_r^T x|^2 + |e|^2``.  ``lift`` maps z rows to x
    by one gemm and one add, into a fresh array, so that with B = 0 every
    iterate is c bit for bit.

    From a run's first _CHUNK block on, one gemv takes p steps (see
    :func:`_rows_per_call`): p rows less the last one's 1 are one contiguous
    slice, which the map of :func:`_multistep` computes from the window
    before them; a block cut by ``max_iter`` ends on a row prefix of the map.
    The rows are then the recursion to rounding, not bit for bit.  Where the
    map is not finite, steps stay one row per gemv, and they go back to one
    once a block's last two z rows agree to within 64 eps relative (see
    _FLOOR): only M's own rounding reaches the fixed point that a stop at
    ``solve_tol = 0`` needs.  The ``(window, out)`` views of a block's calls
    are made once, when a block first reaches that call."""
    r, h = basis.shape[1], len(start)
    q = r + 1
    signs = (1.0, -1.0)[:h]
    # row-major: with M column-major, whole pipeline-large solves (M 120 x 242)
    # ran 5-7% slower under OpenBLAS 0.3.31's Haswell gemv, solve-small's no faster
    m = np.zeros((r, h * q))
    for j, b in enumerate(blocks):
        col = (h - 1 - j) * q  # G_{j+1} reads z_{k-j}
        m[:, col : col + r] = signs[j] * (basis.T @ (b @ basis))
    m[:, -1] = basis.T @ sum(sign * (b @ c) for sign, b in zip(signs, blocks))
    buf = np.ones((h + _CHUNK, q))
    buf[:h] = 0.0
    rows = buf[h:, :r]  # block row i is buf[h + i]
    with np.errstate(over="ignore", invalid="ignore"):
        # step i reads start h + i - j through B_j for j > i
        fixes = [
            basis.T
            @ sum(signs[j] * (blocks[j] @ (start[h + i - j - 1] - (c if i else 0.0))) for j in range(i, h))
            for i in range(h)
        ]
        offset = np.append(basis.T @ c, -1.0)
        x = start[-1]
        rules = np.empty((_CHUNK + 1, q))  # rules[i + 1] is block row i's
        rules[0, :r] = basis.T @ x
        rules[0, r] = -np.linalg.norm(x - basis @ rules[0, :r])
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
        nonlocal last, wide
        buf[:h] = buf[last : last + h]
        rules[0] = rules[last]
        if k == _CHUNK and wide > 1:
            use(_multistep(m, h, wide))
            wide = 1
        full, rest = divmod(k, p)
        made = len(pairs)
        if made <= full:
            pairs.extend(zip(windows[made : full + 1], outs[made : full + 1]))
        step = chain.dot  # the bound method skips np.dot's dispatch, about 0.5 us a call
        lead = min(len(fixes), k)  # the rows that read a start; p = 1 there
        for (window, out), fix in zip(pairs[:lead], fixes):
            step(window, out=out)
            out += fix
        del fixes[:lead]
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
        block = buf[h : h + k]
        np.add(block, offset, out=rules[1 : k + 1])
        return rules[: k + 1], block

    def lift(z):
        x = z[:, :r] @ basis.T
        x += c
        return x

    return advance, lift


def solve_single(
    s: ProperSplitting,
    b,
    x0=None,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    keep_iterates: bool = False,
) -> IterationTrace:
    """One-step stationary iteration for the single splitting A = U - V.
    The trace holds every iterate only with ``keep_iterates``."""
    return _solve(s, b, [x0], (s.block(cfg),), cfg, keep_iterates)


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
    return _solve(d, b, [x0, x1], d.blocks(cfg), cfg, keep_iterates)


def _solve(s, b, starts, blocks, cfg, keep_iterates) -> IterationTrace:
    """The recursion on ``blocks`` (see :func:`_advance`) from one start per
    block, None being zero; a stop needs one small step per start in a row."""
    m, n = s.a.shape
    b = as_vector(b, length=m)
    start = [np.zeros(n) if x is None else as_vector(x, length=n) for x in starts]
    a_pinv, u_pinv = s.pinvs(cfg)
    advance, lift = _advance(blocks, s.rowspace(cfg), u_pinv @ b, start)
    x0_flag = _in_nullspace(s.v, start[0], cfg)
    return _iterate(advance, lift, start, a_pinv @ b, len(start), x0_flag, cfg, keep_iterates)
