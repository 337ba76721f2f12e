"""Tests for the one-step and two-step stationary iterations."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from propersplit import (
    NonFiniteError,
    ShapeMismatchError,
    ToleranceConfig,
    check_convergence,
    iteration_matrix,
    make_pds,
    make_proper_splitting,
    min_norm_lsq,
    pinv,
    solve_double,
    solve_single,
    spectral_radius,
)
from propersplit import solvers
from propersplit.double import ProperDoubleSplitting
from propersplit.generators import weak_regular_double
from propersplit.solvers import (
    _CHUNK,
    _FIRST_CHUNK,
    OVERFLOW_GUARD,
    IterationTrace,
    _iterate,
)


class TestMinNormLsq:
    def test_identity(self):
        assert np.allclose(min_norm_lsq(np.eye(3), [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_second_example(self, ex2):
        x = min_norm_lsq(ex2.a, [2.0, 2.0])
        assert np.max(np.abs(x - np.array([1.0, 2.0, 1.0]))) < 1e-12

    def test_first_example_normal_equations(self, ex1):
        # independent oracle: the minimum-norm least-squares solution solves
        # the normal equations and is orthogonal to the null space of A
        b = np.array([1.0, 0.0])
        x = min_norm_lsq(ex1.a, b)
        assert np.max(np.abs(ex1.a.T @ ex1.a @ x - ex1.a.T @ b)) < 1e-10
        nullbasis = np.array([0.0, 0.0, 1.0])  # N(A) = span(e3)
        assert abs(x @ nullbasis) < 1e-12
        assert np.max(np.abs(x - np.array([1.0, 1.0, 0.0]))) < 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            min_norm_lsq(np.eye(2), [1.0, 2.0, 3.0])


@pytest.mark.parametrize("solve", [solve_single, solve_double], ids=["single", "double"])
@pytest.mark.parametrize(
    "b, x0, error",
    [
        (np.ones((2, 2)), None, ShapeMismatchError),
        ([1.0, np.nan], None, NonFiniteError),
        ([1.0, 1.0], np.ones((3, 3)), ShapeMismatchError),
        ([1.0, 1.0], [0.0, np.inf, 0.0], NonFiniteError),
    ],
    ids=["b-matrix", "b-nan", "x0-matrix", "x0-inf"],
)
def test_solvers_reject_bad_vectors(ex2_splittings, solve, b, x0, error):
    with pytest.raises(error):
        solve(ex2_splittings[0], b, x0)


class TestSolveDouble:
    def test_identity_reaches_b(self):
        d = make_pds(np.eye(2), np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))
        trace = solve_double(d, [1.0, 2.0], keep_iterates=True)
        assert trace.converged and not trace.diverged
        assert np.allclose(trace.limit, [1.0, 2.0])
        assert np.allclose(trace.iterates[2], [1.0, 2.0])  # exact after one application

    def test_second_example_split1(self, ex2_splittings):
        trace = solve_double(ex2_splittings[0], [1.0, 1.0])
        assert trace.converged
        assert np.max(np.abs(trace.limit - np.array([0.5, 1.0, 0.5]))) < 1e-8

    def test_first_example_split2_slow(self, ex1, ex1_splittings):
        trace = solve_double(ex1_splittings[1], [1.0, 0.0])
        assert trace.converged
        assert trace.iterations_used > 50  # rho(W2) = 0.9158 converges slowly
        assert np.max(np.abs(trace.limit - np.array([1.0, 1.0, 0.0]))) < 1e-7

    def test_trace_invariants(self, ex2_splittings):
        trace = solve_double(ex2_splittings[0], [1.0, 1.0], keep_iterates=True)
        assert len(trace.residual_history) == trace.iterations_used
        assert trace.residual_history[-1] <= 1e-10
        assert len(trace.iterates) == trace.iterations_used + 2

    def test_diverged_flagged(self, ex1):
        # scale the subtracted part up until the iteration radius passes 1
        p = ex1.p1
        v = 1.5 * (ex1.r1 - ex1.s1)
        a_scaled = p - v
        d = make_pds(a_scaled, p, 1.5 * ex1.r1, 1.5 * ex1.s1)
        assert spectral_radius(iteration_matrix(d)) > 1.0
        trace = solve_double(d, [1.0, 0.0])
        assert trace.diverged and not trace.converged

    def test_companion_equivalence(self):
        # the x-recursion must match the stacked recursion X_{k+1} = W X_k + B
        rng = default_rng(41)
        for _ in range(10):
            d = weak_regular_double(rng, 4, 5, 3, rho=float(rng.uniform(0.3, 0.9)))
            n = d.a.shape[1]
            b = d.a @ rng.standard_normal(n)
            cfg = ToleranceConfig(solve_tol=0.0, max_iter=100)
            trace = solve_double(d, b, cfg=cfg, keep_iterates=True)
            w = iteration_matrix(d)
            bvec = np.concatenate([pinv(d.p) @ b, np.zeros(n)])
            state = np.concatenate([trace.iterates[1], trace.iterates[0]])
            for k in range(2, len(trace.iterates)):
                state = w @ state + bvec
                assert np.max(np.abs(state[:n] - trace.iterates[k])) <= 1e-12

    def test_fixed_point_identity(self):
        rng = default_rng(42)
        for _ in range(10):
            d = weak_regular_double(rng, 4, 5, 2, rho=0.6)
            b = rng.standard_normal(4)
            x_star = pinv(d.a) @ b
            p_pinv = pinv(d.p)
            step = p_pinv @ d.r @ x_star - p_pinv @ d.s @ x_star + p_pinv @ b
            assert np.max(np.abs(step - x_star)) < 1e-10

    def test_rate_matches_spectral_radius(self):
        rng = default_rng(43)
        checked = 0
        for _ in range(12):
            d = weak_regular_double(rng, 4, 5, 3, rho=float(rng.uniform(0.75, 0.93)))
            rho_w = spectral_radius(iteration_matrix(d))
            if rho_w > 0.95:
                continue
            b = d.a @ rng.standard_normal(5)
            trace = solve_double(d, b)
            if not trace.converged or trace.iterations_used < 40:
                continue
            res = trace.residual_history
            rate = (res[-1] / res[-21]) ** (1.0 / 20.0)
            assert abs(rate - rho_w) < 0.1
            checked += 1
        assert checked >= 5

    def test_x0_nullspace_flag(self, ex2_splittings):
        d = ex2_splittings[0]
        assert solve_double(d, [1.0, 1.0]).x0_in_nullspace_v  # default zero start
        t = solve_double(d, [1.0, 1.0], x0=[1.0, 1.0, 1.0], x1=[0.0, 0.0, 0.0])
        assert not t.x0_in_nullspace_v


class TestSolveSingle:
    def test_geometric_scalar(self):
        s = make_proper_splitting(np.eye(1), 2.0 * np.eye(1))
        trace = solve_single(s, [1.0])
        assert trace.converged
        assert abs(trace.limit[0] - 1.0) < 1e-9
        # each step halves the remaining gap
        ratios = [
            trace.residual_history[k + 1] / trace.residual_history[k]
            for k in range(min(10, trace.iterations_used - 1))
        ]
        assert all(abs(r - 0.5) < 1e-6 for r in ratios)

    def test_induced_single_first_example(self, ex1, ex1_splittings):
        s = ex1_splittings[0]
        trace = solve_single(s, [1.0, 0.0])
        assert trace.converged
        assert np.max(np.abs(trace.limit - np.array([1.0, 1.0, 0.0]))) < 1e-7

    def test_diverged_flagged(self, ex1):
        u = ex1.p1
        v = 1.5 * (ex1.r1 - ex1.s1)
        s = make_proper_splitting(u - v, u)
        assert spectral_radius(pinv(u) @ v) > 1.0
        trace = solve_single(s, [1.0, 0.0], x0=[1.0, 1.0, 0.0])
        assert trace.diverged and not trace.converged

    def test_residual_history_length(self):
        s = make_proper_splitting(np.eye(2), 2.0 * np.eye(2))
        trace = solve_single(s, [1.0, 1.0], keep_iterates=True)
        assert len(trace.residual_history) == trace.iterations_used
        assert len(trace.iterates) == trace.iterations_used + 1


class TestOverflowingStart:
    """A finite start whose squared norm overflows gives a diverged trace,
    not a RuntimeWarning (which pytest turns into an error here)."""

    @pytest.mark.parametrize("big", [1e200, 1e300])
    def test_double(self, big):
        d = weak_regular_double(default_rng(44), 6, 5, 3, rho=0.9)
        x = np.full(5, big)
        trace = solve_double(d, np.ones(6), x0=x, x1=x)
        assert trace.diverged and not trace.converged
        assert trace.iterations_used == 1
        assert not trace.x0_in_nullspace_v

    @pytest.mark.parametrize("big", [1e200, 1e300])
    def test_single(self, big):
        s = weak_regular_double(default_rng(45), 6, 5, 3, rho=0.9)
        trace = solve_single(s, np.ones(6), x0=np.full(5, big))
        assert trace.diverged and not trace.converged
        assert trace.iterations_used == 1
        assert not trace.x0_in_nullspace_v

    def test_nan_iterate_is_diverged(self):
        # P^+R x1 - P^+S x0 = inf - inf = NaN: an iterate whose norm is NaN,
        # not a finite norm above the guard
        eye = np.eye(2)
        d = make_pds(eye, eye, 2.0 * eye, 2.0 * eye)
        x = np.full(2, 1e308)
        trace = solve_double(d, [1.0, 1.0], x0=x, x1=x)
        assert np.isnan(trace.limit).all()
        assert trace.diverged and not trace.converged
        assert trace.iterations_used == 1

    @pytest.mark.parametrize("big", [1e200, 1e300])
    def test_huge_start_in_the_null_space_is_flagged(self, big):
        # null(A) lies in null(V) for a proper splitting
        d = weak_regular_double(default_rng(46), 6, 5, 3, rho=0.9)
        null_vec = np.linalg.svd(d.a)[2][-1]
        assert np.max(np.abs(d.a @ null_vec)) <= 1e-12
        trace = solve_double(d, np.ones(6), x0=big * null_vec)
        assert trace.x0_in_nullspace_v
        assert solve_single(d, np.ones(6), x0=big * null_vec).x0_in_nullspace_v

    @pytest.mark.parametrize("big", [1e150, 1e200])
    def test_large_v_times_a_large_start(self, big):
        # entries near 1e4 in V: |V x| overflows although |x| does not (1e150)
        d0 = weak_regular_double(default_rng(47), 6, 5, 3, rho=0.9)
        d = make_pds(*(1e4 * m for m in (d0.a, d0.p, d0.r, d0.s)))
        null_vec = np.linalg.svd(d0.a)[2][-1]
        for x, in_null in ((np.full(5, big), False), (big * null_vec, True)):
            assert solve_double(d, np.ones(6), x0=x).x0_in_nullspace_v is in_null
            assert solve_single(d, np.ones(6), x0=x).x0_in_nullspace_v is in_null


def _nullspace_draws(rng, count):
    """``(V, x)`` pairs: V of each rank 0 to min(m, n), entries scaled by up
    to 1e3 either way; x zero, exactly null (on a zeroed column of V), near
    null (a null vector of V plus a step of 1e-16 to 1 times a random one) or
    random, times 1e-12 to 1e12."""
    for _ in range(count):
        m, n = rng.integers(1, 9, size=2)
        rank = rng.integers(0, min(m, n) + 1)
        v = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
        v *= 10.0 ** rng.uniform(-3, 3)
        kind = rng.integers(4)
        if kind == 0:
            x = np.zeros(n)
        elif kind == 1:
            v[:, 0] = 0.0
            x = np.eye(n)[0]
        elif kind == 2:
            null = np.linalg.svd(v)[2][-1] if rank < n else np.zeros(n)
            x = null + 10.0 ** rng.uniform(-16, 0) * rng.standard_normal(n)
        else:
            x = rng.standard_normal(n)
        yield v, x * 10.0 ** rng.uniform(-12, 12)


@pytest.mark.parametrize("tol", [0.0, 1e-10, 1e-3])
def test_in_nullspace_equals_the_unscaled_test(tol):
    # the power-of-two scaling is exact, so wherever the plain expression is
    # finite the decisions are the same
    cfg = ToleranceConfig(solve_tol=tol)
    decided = set()
    for v, x in _nullspace_draws(default_rng(2800), 3000):
        with np.errstate(over="ignore", invalid="ignore"):
            lhs, norm_x = np.linalg.norm(v @ x), np.linalg.norm(x)
        if not (math.isfinite(lhs) and math.isfinite(norm_x)):
            continue
        want = bool(lhs <= tol * (1.0 + norm_x))
        assert solvers._in_nullspace(v, x, cfg) is want
        decided.add(want)
    assert decided == {True, False}


def test_in_nullspace_of_a_subnormal_start():
    # x is scaled up by 2^1073, to 0.5, and V x is exactly 0: that meets solve_tol = 0
    x = np.full(3, 5e-324)
    assert solvers._in_nullspace(np.zeros((2, 3)), x, ToleranceConfig(solve_tol=0.0))


@pytest.mark.parametrize("tiny", [5e-324, 1e-170])
def test_a_tiny_start_is_not_in_the_null_space_of_a_nonzero_v(tiny):
    # |V x|^2 underflows to 0 unless x is scaled up to unit size first
    v = np.ones((2, 3))
    x = np.full(3, tiny)
    assert not solvers._in_nullspace(v, x, ToleranceConfig(solve_tol=0.0))
    # |V x| = sqrt(18) tiny sits far below 1e-10 and far above 1e-320
    assert solvers._in_nullspace(v, x, ToleranceConfig(solve_tol=1e-10))
    assert solvers._in_nullspace(v, x, ToleranceConfig(solve_tol=1e-320)) is (tiny == 5e-324)


@pytest.mark.parametrize("tol", [0.0, 1e-300, 1e-10])
def test_a_tiny_exact_null_vector_is_in_the_null_space(tol):
    # powers of two make every product exact, so V x is 0 whatever the
    # order of summation or the use of fused multiply-adds
    v = np.array([[1.0, 1.0, 2.0], [4.0, 4.0, -1.0], [2.0**900, 2.0**900, 0.0]])
    x = 1e-170 * np.array([1.0, -1.0, 0.0])
    assert not np.any(v @ x)
    assert solvers._in_nullspace(v, x, ToleranceConfig(solve_tol=tol))
    # off the null space only through the rows of V far below its largest
    # entry: |V x| = sqrt(5) 1e-170
    off = x + np.array([0.0, 0.0, 1e-170])
    assert solvers._in_nullspace(v, off, ToleranceConfig(solve_tol=tol)) is (tol == 1e-10)


# The solver loop as it was before it took one step norm and one iterate norm
# per iteration: three np.linalg.norm calls and an np.isfinite pass per step,
# and the tail guard as a class.  Kept verbatim as the oracle whose stop rules
# the current loop must match bit for bit, on the rows the solver's stop rules
# read (see _replayed), and whose full-coordinate recursion the solver's own
# arithmetic must match to rounding (see TestRestrictedArithmetic).

def _reference_in_nullspace(v_mat, x, cfg):
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


def _reference_iterate(update, start, reference, need_small, x0_flag, cfg) -> IterationTrace:
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


def _reference_solve_single(s, b, x0, cfg):
    """The reference loop on the recursion ``x_{i+1} = U^+V x_i + U^+b``."""
    x = np.zeros(s.a.shape[1]) if x0 is None else np.array(x0, dtype=float)
    a_pinv, u_pinv = s.pinvs()
    h = s.block()
    c = u_pinv @ b
    x0_flag = _reference_in_nullspace(s.v, x, cfg)
    return _reference_iterate(lambda xs: h @ xs[-1] + c, [x], a_pinv @ b, 1, x0_flag, cfg)


def _reference_solve_double(d, b, x0, x1, cfg):
    """The reference loop on the two-step recursion."""
    n = d.a.shape[1]
    x_prev = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    x_curr = np.zeros(n) if x1 is None else np.array(x1, dtype=float)
    a_pinv, p_pinv = d.pinvs()
    pr, ps = d.blocks()
    pb = p_pinv @ b
    x0_flag = _reference_in_nullspace(d.v, x_prev, cfg)
    return _reference_iterate(
        lambda xs: pr @ xs[-1] - ps @ xs[-2] + pb, [x_prev, x_curr], a_pinv @ b, 2, x0_flag, cfg
    )


def _replay(rows):
    it = iter(rows)
    return lambda xs: next(it)


def _reference_on_rules(split, x0, rules, h, reference, cfg):
    """The reference loop on the rows a solve's stop rules read (see
    :func:`_replayed`): ``rules[0]`` stands for the last start and the rest
    are replayed in order, against ``reference`` in the same coordinates."""
    x = np.zeros(split.a.shape[1]) if x0 is None else np.array(x0, dtype=float)
    x0_flag = _reference_in_nullspace(split.v, x, cfg)
    return _reference_iterate(_replay(rules[1:]), [rules[0]] * h, reference, h, x0_flag, cfg)


def _replayed(solve, *args, **kwargs):
    """``(trace, rules, xs)``: ``solve(*args, keep_iterates=True, **kwargs)``'s
    trace, the rows its stop rules read, the row that stands for the last
    start first, and every row its loop computed, lifted to full coordinates,
    in order, those past the stop included.

    ``solvers._iterate`` is wrapped so that each block its ``advance``
    returns is recorded.  The rows are taken from the solver rather than
    recomputed: the rules' rows are the solver's own, and a gemm can round a
    row differently with the number of rows it is given, so that a row
    lifted alone need not repeat the bits of the same row lifted in a
    block."""
    rules, xs = [], []
    real = solvers._iterate

    def recording(advance, lift, *rest):
        def recorded(k):
            block_rules, block = advance(k)
            rules.extend(block_rules[1 if rules else 0 :].copy())
            xs.extend(lift(block))
            return block_rules, block

        return real(recorded, lift, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_iterate", recording)
        trace = solve(*args, keep_iterates=True, **kwargs)
    return trace, rules, xs


def _scripted(update, before, n=1):
    """``advance`` for ``_iterate``, in coordinates that are the iterates'
    own, from ``update(row)``, which writes one row of length n in place;
    ``before`` is the last start."""
    prev = np.array(before, dtype=float)

    def advance(k):
        nonlocal prev
        rules = np.empty((k + 1, n))
        rules[0] = prev
        for row in rules[1:]:
            update(row)
        prev = rules[k]
        return rules, rules[1:]

    return advance


def _trace_bits(t):
    return (
        [x.tobytes() for x in t.iterates],
        [float(r).hex() for r in t.residual_history],
        t.converged,
        t.iterations_used,
        t.limit.tobytes(),
        t.reference_solution.tobytes(),
        float(t.distance_to_reference).hex(),
        t.diverged,
        t.x0_in_nullspace_v,
    )


def _rule_bits(t):
    """The fields of a trace that its stop rules decide, but ``converged``,
    which also reads the distance."""
    return (
        [float(r).hex() for r in t.residual_history],
        t.iterations_used,
        t.diverged,
        t.x0_in_nullspace_v,
    )


_LOOP_CONFIGS = {
    "default": ToleranceConfig(),
    "max_iter=5": ToleranceConfig(max_iter=5),
    "solve_tol=0": ToleranceConfig(solve_tol=0.0, max_iter=300),
    "solve_tol=1e-6": ToleranceConfig(solve_tol=1e-6),
}
_LOOP_RHOS = [0.5, 0.95, 0.99, 1.05, 3.0]
_LOOP_SHAPES = [(6, 5, 3), (5, 6, 2), (12, 10, 6)]


def _loop_case(shape, rho):
    """A weak regular double splitting of ``shape`` (m, n, rank) with
    rho(W) = rho, which is also its induced single splitting, a right-hand
    side and a random pair of starts."""
    m, n, rank = shape
    rng = default_rng(int(1000 * rho) + 7 * m + n)
    d = weak_regular_double(rng, m, n, rank, rho=rho, nullspace_mix=0.3)
    b = rng.uniform(0.5, 1.5, m)
    return d, b, rng.standard_normal(n), rng.standard_normal(n)


class TestLoopMatchesReference:
    """Differential: every trace field that the stop rules decide is
    bit-identical to the reference loop's on the rows those rules read, and
    the limit and distance agree to rounding, for convergent and divergent
    radii, m < n and m > n, max_iter exhaustion, solve_tol = 0, and zero or
    random starting vectors."""

    @pytest.mark.parametrize("rho", _LOOP_RHOS)
    @pytest.mark.parametrize("shape", _LOOP_SHAPES)
    def test_bit_identical_traces(self, shape, rho):
        d, b, x0, x1 = _loop_case(shape, rho)
        outcomes = set()
        for cfg in _LOOP_CONFIGS.values():
            for start0, start1 in ((None, None), (x0, x1)):
                _rules_match(solve_double, d, b, (start0, start1), cfg)
                got = _rules_match(solve_single, d, b, (start0,), cfg)
                outcomes.add((got.converged, got.diverged, got.iterations_used == cfg.max_iter))
        # each case reaches at least two different stops across the configs
        assert len(outcomes) >= 2

    @pytest.mark.parametrize("rho", [0.9, 0.99, 1.05])
    def test_bit_identical_traces_with_a_complex_spectrum(self, rho):
        # square splittings with random, nonnormal iteration matrices: complex
        # eigenvalues make the step ratios oscillate, so the rate estimate (the
        # largest of the last three ratios) decides when the tail guard stops
        rng = default_rng(int(100 * rho))
        n = 6
        eye = np.eye(n)
        g_r, g_s = rng.standard_normal((2, n, n))

        def scaled(t):  # P = I, R = t G_R, S = t G_S
            return make_pds(eye - t * (g_r - g_s), eye, t * g_r, t * g_s)

        lo, hi = 0.0, 1.0
        while spectral_radius(iteration_matrix(scaled(hi))) < rho:
            hi *= 2.0
        for _ in range(60):  # bisect the scale t for rho(W) = rho
            d = scaled(0.5 * (lo + hi))
            if spectral_radius(iteration_matrix(d)) < rho:
                lo = 0.5 * (lo + hi)
            else:
                hi = 0.5 * (lo + hi)
        s = make_proper_splitting(d.a, eye)
        b = rng.uniform(0.5, 1.5, n)
        x0, x1 = rng.standard_normal(n), rng.standard_normal(n)
        for cfg in (_LOOP_CONFIGS["default"], _LOOP_CONFIGS["solve_tol=1e-6"]):
            for start0, start1 in ((None, None), (x0, x1)):
                _rules_match(solve_double, d, b, (start0, start1), cfg)
                _rules_match(solve_single, s, b, (start0,), cfg)


def _rules_match(solve, split, b, starts, cfg):
    """``solve(split, b, *starts, cfg=cfg)``'s trace, after checking the
    fields its stop rules decide bit for bit against the reference loop on
    the rows those rules read, ``converged`` as that loop's step verdict and
    the trace's own distance test, its limit against the stop row, to
    rounding, and that it holds exactly ``iterations_used`` iterates after
    its start, the limit last."""
    got, rules, _ = _replayed(solve, split, b, *starts, cfg=cfg)
    # against the row the solve stopped on, the reference loop's distance is
    # 0, so its converged flag is its step rule's verdict
    stop = rules[got.iterations_used]
    want = _reference_on_rules(split, starts[0], rules, len(starts), stop, cfg)
    assert _rule_bits(got) == _rule_bits(want)
    a_pinv, u_pinv = split.pinvs()
    reference = a_pinv @ b
    near = got.distance_to_reference <= 10.0 * cfg.solve_tol * (1.0 + np.linalg.norm(reference))
    assert got.converged == (want.converged and near)
    assert got.reference_solution.tobytes() == reference.tobytes()
    assert len(got.iterates) == got.iterations_used + len(starts)
    assert got.limit is got.iterates[-1]
    if np.isfinite(got.limit).all():
        basis = split.rowspace()
        bound = 1e-13 * sum(np.linalg.norm(x) for x in (got.limit, reference, u_pinv @ b))
        assert np.linalg.norm(got.limit - basis @ stop[: basis.shape[1]]) <= bound
    return got


def _matches_reference(split, b, starts, cfg):
    """:func:`_rules_match` for ``solve_double`` (or ``solve_single``,
    taking ``starts[0]``)."""
    if isinstance(split, ProperDoubleSplitting):
        return _rules_match(solve_double, split, b, starts, cfg)
    return _rules_match(solve_single, split, b, starts[:1], cfg)


def _single(d):
    """The single splitting U = P, V = P - A of d, as its own object: d is
    its induced single splitting, which the helpers would solve as double."""
    return make_proper_splitting(d.a, d.p)


def _slow_pair(seed, rho):
    """A weak regular 6x5 rank 3 double splitting, its single splitting
    U = P, V = P - A, a right-hand side and a random pair of starts."""
    rng = default_rng(seed)
    d = weak_regular_double(rng, 6, 5, 3, rho=rho, nullspace_mix=0.3)
    return d, _single(d), rng.uniform(0.5, 1.5, 6), tuple(rng.standard_normal((2, 5)))


class TestChunkBoundaries:
    """Differential, at the edges of the solver loop's blocks, which end after
    rows 8, 16, 32, 64 and 128 and then every ``_CHUNK`` rows: every trace
    field that the stop rules decide is bit-identical to the reference loop's
    on the rows those rules read, and a trace holds ``iterations_used``
    iterates after its start, for a stop at ``max_iter``, on divergence and
    on convergence."""

    @pytest.mark.parametrize(
        "max_iter",
        [_FIRST_CHUNK - 1, _FIRST_CHUNK, _FIRST_CHUNK + 1, _CHUNK // 2 - 1, _CHUNK // 2]
        + [_CHUNK // 2 + 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, _CHUNK + 3, 2 * _CHUNK + 3],
    )
    @pytest.mark.parametrize("solve_tol", [1e-10, 0.0])
    def test_max_iter_at_a_block_edge(self, max_iter, solve_tol):
        d, s, b, starts = _slow_pair(5, 0.99)
        cfg = ToleranceConfig(solve_tol=solve_tol, max_iter=max_iter)
        for split in (d, s):
            for x in ((None, None), starts):
                trace = _matches_reference(split, b, x, cfg)
                assert trace.iterations_used == max_iter
                assert not (trace.converged or trace.diverged)

    @pytest.mark.parametrize(
        "at", [_FIRST_CHUNK, _FIRST_CHUNK + 1, _CHUNK // 2, _CHUNK // 2 + 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK]
    )
    def test_divergence_at_a_block_edge(self, at):
        # x_{k+1} = diag(2, 1/2) x_k from a start whose first entry is
        # 1.5e12 / 2^at: the norm passes OVERFLOW_GUARD at iteration `at`
        # exactly, the last row of one block or the first row of the next;
        # solve_tol = 0 keeps the tiny early steps from stopping the run
        grow = np.diag([2.0, 0.5])
        eye = np.eye(2)
        d = make_pds(eye - grow, eye, grow, np.zeros((2, 2)))
        s = make_proper_splitting(eye - grow, eye)
        x = np.array([1.5e12 / 2.0**at, 1.0])
        for split in (d, s):
            trace = _matches_reference(split, np.zeros(2), (x, x), ToleranceConfig(solve_tol=0.0))
            assert trace.diverged and trace.iterations_used == at

    @pytest.mark.parametrize("rho", [0.9, 0.97])
    def test_first_small_step_opens_a_block(self, rho):
        # solve_tol is the step at row _CHUNK, the first row of a block, and
        # every earlier step is larger: the tail guard's rate window
        # then holds ratios of steps from both blocks.  Iterates near 1e-3 make
        # the tail bound 5 tol (1 + |x|) + tol about 6 tol, which a rate near
        # rho exceeds for several steps past the first small ones
        d, s, b, starts = _slow_pair(6, rho)
        b, starts = 1e-3 * b, tuple(1e-3 * x for x in starts)
        probe_cfg = ToleranceConfig(solve_tol=0.0, max_iter=_CHUNK + 1)
        for split in (d, s):
            for x in ((None, None), starts):
                probe = _matches_reference(split, b, x, probe_cfg)
                steps = probe.residual_history
                tol = steps[_CHUNK]
                assert tol < min(steps[:_CHUNK])
                trace = _matches_reference(split, b, x, ToleranceConfig(solve_tol=tol))
                assert trace.converged and trace.iterations_used > _CHUNK + 2

    @pytest.mark.parametrize("theta", [0.3, 1.1, 2.5])
    def test_oscillating_steps_around_a_block_edge(self, theta):
        # x_{k+1} = H x_k + b with H = 0.9 D Rot(theta) D^-1, D = diag(4, 1/4):
        # a nonnormal H whose complex eigenvalues make the step sizes rise and
        # fall, so each solve_tol taken from the steps near row _CHUNK puts
        # small steps, and large ones between them, on both sides of the edge
        c, s_ = np.cos(theta), np.sin(theta)
        h = 0.9 * np.array([[c, -16.0 * s_], [s_ / 16.0, c]])
        eye = np.eye(2)
        d = make_pds(eye - h, eye, h, np.zeros((2, 2)))
        s = make_proper_splitting(eye - h, eye)
        b = np.array([1e-3, -2e-3])
        probe_cfg = ToleranceConfig(solve_tol=0.0, max_iter=_CHUNK + 8)
        for split in (d, s):
            probe = _matches_reference(split, b, (None, None), probe_cfg)
            for tol in sorted(set(probe.residual_history[_CHUNK - 8 :])):
                _matches_reference(split, b, (None, None), ToleranceConfig(solve_tol=tol))

    @pytest.mark.parametrize("need_small", [1, 2])
    def test_rate_window_reaches_into_the_previous_block(self, need_small):
        # scripted 1-D iterates: steps of exactly 1 through the first _CHUNK
        # rows, which end a block, then 5e-11, 5e-13 and 0.  At the first small
        # steps the rate is 0.9999 only through the ratios of steps in the
        # previous block, and that rate
        # keeps the tail guard from stopping before the zero step
        values = [0.5 * (-1.0) ** (i + 1) for i in range(_CHUNK)]
        values += [values[-1] + 5e-11, values[-1] + 5e-11 + 5e-13]
        values += [values[-1]] * _CHUNK
        start = [np.array([0.5])] * need_small
        cfg = ToleranceConfig(max_iter=len(values))
        it = iter(values)
        advance = _scripted(lambda row: row.fill(next(it)), start[-1])
        got = _iterate(advance, np.array, start, np.zeros(1), need_small, False, cfg, True)
        it_ref = iter(values)
        want = _reference_iterate(
            lambda xs: np.array([next(it_ref)]), start, np.zeros(1), need_small, False, cfg
        )
        assert _trace_bits(got) == _trace_bits(want)
        assert got.iterations_used == _CHUNK + 3

    @pytest.mark.parametrize("need_small", [1, 2])
    def test_rate_window_run_converges(self, need_small):
        # the iterates above, measured against their last value: the run
        # stops on the zero step, at that value
        values = [0.5 * (-1.0) ** (i + 1) for i in range(_CHUNK)]
        values += [values[-1] + 5e-11, values[-1] + 5e-11 + 5e-13]
        values += [values[-1]] * _CHUNK
        got, want = _scripted_traces(values, 0.5, need_small, ToleranceConfig(max_iter=len(values)))
        assert _trace_bits(got) == _trace_bits(want)
        assert got.converged and got.distance_to_reference == 0.0

    def test_exact_fixed_point_with_zero_tolerance(self):
        # R = S = 0 (V = 0): every iterate after the first step is P^+ b, so
        # the steps are exactly 0 and a run stops with solve_tol = 0
        d0 = weak_regular_double(default_rng(7), 6, 5, 3, rho=0.5)
        zero = np.zeros_like(d0.p)
        d = make_pds(d0.p, d0.p, zero, zero)
        s = make_proper_splitting(d0.p, d0.p)
        cfg = ToleranceConfig(solve_tol=0.0)
        for split, used in ((d, 3), (s, 2)):
            trace = _matches_reference(split, np.ones(6), (None, None), cfg)
            assert trace.converged and trace.iterations_used == used

    def test_rows_computed_past_a_stop(self):
        # scripted 1-D iterates of alternating sign that diverge at row k: the
        # run keeps k rows and has computed the rows of the blocks that hold
        # them, fewer than 2k once k > _FIRST_CHUNK and never more than fixed
        # blocks of _CHUNK rows would hold
        for k in range(1, 3 * _CHUNK + 2):
            calls = []

            def update(row, *_):
                calls.append(None)
                row.fill(math.inf if len(calls) == k else (-1.0) ** len(calls))

            cfg = ToleranceConfig(solve_tol=0.0)
            advance = _scripted(update, np.zeros(1))
            trace = _iterate(advance, np.array, [np.zeros(1)], np.zeros(1), 1, False, cfg, True)
            assert trace.diverged and trace.iterations_used == k
            assert len(trace.iterates) == k + 1
            assert len(calls) <= max(_FIRST_CHUNK, 2 * k - 2)
            assert len(calls) <= -(-k // _CHUNK) * _CHUNK


def _scripted_traces(values, start, need_small, cfg):
    """``(got, want)``: the traces of ``_iterate`` and of the reference loop
    on the scripted 1-D iterates ``values``, from ``need_small`` copies of
    the start value ``start``.  Both measure their distance to the last
    scripted value, the limit of a run that ends in zero steps, so a run
    that stops there converges.  The reference runs with overflow and
    invalid-operation warnings off, as ``_iterate`` does: the step from a
    start near 1e300 squares to Inf."""
    x0 = [np.array([start])] * need_small
    ref = np.array([values[-1]])
    it = iter(values)
    advance = _scripted(lambda row: row.fill(next(it)), x0[-1])
    got = _iterate(advance, np.array, x0, ref, need_small, False, cfg, True)
    it_ref = iter(values)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _reference_iterate(
            lambda xs: np.array([next(it_ref)]), x0, ref, need_small, False, cfg
        )
    return got, want


def _walk(steps, x=0.5):
    """1-D iterates from x that move by each of ``steps`` in turn, with
    alternating sign."""
    values = []
    for i, step in enumerate(steps):
        x += step if i % 2 else -step
        values.append(x)
    return values


_TOL = ToleranceConfig().solve_tol


@st.composite
def _scripted_runs(draw):
    """``(values, start, need_small, max_iter)``: up to 200 scripted 1-D
    iterates made of geometric runs of steps spread around solve_tol (exact
    zeros included, and steps below the rounding of x near 0.5, which round
    to zero), with an optional Inf, NaN or 2e12 row, from 0.5 or from a start
    near 1e300 that makes the first step Inf."""
    segments = st.tuples(
        st.integers(1, 70),
        st.sampled_from((None, -8.0, -4.0, -1.0, -0.3, 0.0, 0.3, 1.0, 3.0)),
        st.sampled_from((0.5, 0.9, 0.999, 1.0, 1.1)),
    )
    steps = []
    for length, log_scale, ratio in draw(st.lists(segments, min_size=1, max_size=5)):
        scale = 0.0 if log_scale is None else _TOL * 10.0**log_scale
        steps += [scale * ratio**i for i in range(length)]
    steps = steps[:200]
    signs = draw(st.lists(st.booleans(), min_size=len(steps), max_size=len(steps)))
    values, x = [], 0.5
    for step, up in zip(steps, signs):
        x += step if up else -step
        values.append(x)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(values) - 1))
        values[at] = draw(st.sampled_from((math.inf, math.nan, 2e12)))
    start = draw(st.sampled_from((0.5, 1e300)))
    return values, start, draw(st.sampled_from((1, 2))), draw(st.integers(1, len(values)))


class TestBulkBooking:
    """Differential, on scripted 1-D iterates: blocks in which no row can stop
    the run are booked in bulk, and every trace field stays bit-identical to
    the reference loop's."""

    @settings(max_examples=150, deadline=None)
    @given(run=_scripted_runs())
    def test_matches_the_reference_loop(self, run):
        values, start, need_small, max_iter = run
        got, want = _scripted_traces(values, start, need_small, ToleranceConfig(max_iter=max_iter))
        assert _trace_bits(got) == _trace_bits(want)

    @pytest.mark.parametrize("need_small", [1, 2])
    def test_inf_first_step_before_full_blocks(self, need_small):
        # the first step, from 1e300, is Inf; 39 large steps follow, through
        # the blocks that end after rows 8, 16 and 32, then the steps halve
        # until they round to zero
        values = [0.5] + _walk([1e-3 * 0.95**i for i in range(39)])
        values += _walk([1e-11 * 0.5**i for i in range(40)] + [0.0] * 30, values[-1])
        got, want = _scripted_traces(values, 1e300, need_small, ToleranceConfig())
        assert _trace_bits(got) == _trace_bits(want)
        assert got.residual_history[0] == math.inf
        assert not got.diverged and 40 < got.iterations_used < len(values)

    def test_zero_step_ends_a_block(self):
        # row 8, the last of the first block, repeats row 7: with need_small 2
        # that zero step stops nothing, and the next block, rows 9 to 16, is
        # booked in bulk after a zero prev_step; with need_small 1 it stops
        values = _walk([1e-3 * 0.9**i for i in range(7)])
        values += [values[-1]]
        values += _walk([1e-3 * 0.8**i for i in range(24)], values[-1])
        values += _walk([1e-12 * 0.5**i for i in range(40)] + [0.0] * 30, values[-1])
        got, want = _scripted_traces(values, 0.5, 2, ToleranceConfig())
        assert _trace_bits(got) == _trace_bits(want)
        assert got.residual_history[_FIRST_CHUNK - 1] == 0.0
        assert not got.diverged and 32 < got.iterations_used < len(values)
        got, want = _scripted_traces(values, 0.5, 1, ToleranceConfig())
        assert _trace_bits(got) == _trace_bits(want)
        assert got.iterations_used == _FIRST_CHUNK

    @pytest.mark.parametrize("need_small", [1, 2])
    @pytest.mark.parametrize("at", [8, 16, 32, 64, 128])
    def test_first_small_step_after_bulk_blocks(self, at, need_small):
        # `at` large steps fill the blocks that end after row `at`, and the
        # first small step is the first row of the next block; the zero steps
        # after the small ones fill that block, which computes up to _CHUNK rows
        values = _walk([1e-3 * 0.99**i for i in range(at)])
        values += _walk([1e-12 * 0.5**i for i in range(40)] + [0.0] * _CHUNK, values[-1])
        got, want = _scripted_traces(values, 0.5, need_small, ToleranceConfig())
        assert _trace_bits(got) == _trace_bits(want)
        steps = got.residual_history
        assert min(steps[:at]) > _TOL >= steps[at]
        assert not got.diverged and at < got.iterations_used < len(values)


    @pytest.mark.parametrize("need_small", [1, 2])
    def test_walk_converges_on_its_limit(self, need_small):
        # the last case at row _CHUNK: the halving steps stop the run within
        # 10 solve_tol of the last scripted value
        values = _walk([1e-3 * 0.99**i for i in range(_CHUNK)])
        values += _walk([1e-12 * 0.5**i for i in range(40)] + [0.0] * _CHUNK, values[-1])
        got, want = _scripted_traces(values, 0.5, need_small, ToleranceConfig())
        assert _trace_bits(got) == _trace_bits(want)
        assert got.converged


@st.composite
def _runs_through_full_blocks(draw):
    """``(values, at, need_small)``: scripted 1-D iterates of 250-520 rows
    whose steps are all > solve_tol but the one into row ``at``, a lone small
    step or an exact zero in the middle of one of the full _CHUNK-row blocks
    of rows 129-256, 257-384 and 385-512; large steps follow it, then steps
    that halve until they round to zero, which stop the run, and zero steps
    that fill the last block."""
    block = draw(st.integers(1, 3))
    at = block * _CHUNK + draw(st.integers(1, _CHUNK - 2))  # the event's 0-based row
    end = draw(st.integers(max(250, at + 2), 520))  # the first halving step's row
    scale = 10.0 ** draw(st.sampled_from((-3.0, -4.0, -6.0)))
    ratio = draw(st.sampled_from((0.99, 0.999, 1.0)))
    small = draw(st.sampled_from((0.0, 1e-17, 1e-3 * _TOL, 0.3 * _TOL, 0.9 * _TOL)))
    steps = [scale * ratio**i for i in range(end)]
    steps[at] = small
    values = _walk(steps)
    values += _walk([1e-12 * 0.5**i for i in range(40)] + [0.0] * _CHUNK, values[-1])
    return values, at, draw(st.sampled_from((1, 2)))


class TestBookingInFullBlocks:
    """Differential, on scripted 1-D iterates: a row that can stop the run in
    the middle of a full _CHUNK-row block, then large steps in the same
    block; the rows before it are booked in one call and the rules run row
    by row from it on, and every trace field stays bit-identical to the
    reference loop's."""

    @settings(max_examples=60, deadline=None)
    @given(run=_runs_through_full_blocks())
    def test_matches_the_reference_loop(self, run):
        values, at, need_small = run
        got, want = _scripted_traces(values, 0.5, need_small, ToleranceConfig())
        assert _trace_bits(got) == _trace_bits(want)
        steps = got.residual_history
        assert min(steps[:at]) > _TOL >= steps[at]
        # the stop rule ends the run, at the event or after the halving steps
        assert not got.diverged and got.iterations_used < len(values)
        assert got.iterations_used == at + 1 or got.iterations_used > 250

    def test_run_past_a_lone_zero_step_converges(self):
        # a zero step at row 200 stops nothing with need_small 2; the halving
        # steps after row 300 stop the run within 10 solve_tol of its limit
        steps = [1e-3 * 0.999**i for i in range(300)]
        steps[200] = 0.0
        values = _walk(steps)
        values += _walk([1e-12 * 0.5**i for i in range(40)] + [0.0] * _CHUNK, values[-1])
        got, want = _scripted_traces(values, 0.5, 2, ToleranceConfig())
        assert _trace_bits(got) == _trace_bits(want)
        assert got.converged and got.iterations_used > 300


def _block_of_each_row(rows):
    """The index of the solver block that computes each of ``rows`` rows."""
    ids, used = [], 0
    while used < rows:
        size = min(max(used, _FIRST_CHUNK), _CHUNK, rows - used)
        ids += [len(set(ids))] * size
        used += size
    return ids


class TestNoAliasing:
    """The z buffer a solve reuses for all its blocks never backs a trace:
    each block's iterates are a fresh array."""

    @pytest.mark.parametrize("double", [True, False])
    def test_traces_own_their_iterates(self, double):
        d, s, b, starts = _slow_pair(8, 0.95)
        split, solve = (d, solve_double) if double else (s, solve_single)
        first = solve(split, b, *starts[: 2 if double else 1], keep_iterates=True)
        bits = _trace_bits(first)
        solve(split, 2.0 * b + 1.0)
        assert _trace_bits(first) == bits
        h = len(first.iterates) - first.iterations_used
        assert first.iterations_used > 2 * _CHUNK
        groups = [-1 - i for i in range(h)] + _block_of_each_row(first.iterations_used)
        for i, (x, gx) in enumerate(zip(first.iterates, groups)):
            for y, gy in zip(first.iterates[i + 1 :], groups[i + 1 :]):
                assert gx == gy or not np.shares_memory(x, y)


class TestKeepIterates:
    """A solve keeps its iterates only when asked; nothing else in its trace
    depends on that, and without them its memory does not grow with the
    number of steps."""

    @pytest.mark.parametrize("rho", _LOOP_RHOS)
    @pytest.mark.parametrize("shape", _LOOP_SHAPES)
    def test_default_trace_equals_the_kept_trace(self, shape, rho):
        d, b, x0, x1 = _loop_case(shape, rho)
        for cfg in _LOOP_CONFIGS.values():
            for start0, start1 in ((None, None), (x0, x1)):
                for solve, split, starts in (
                    (solve_double, d, (start0, start1)),
                    (solve_single, d, (start0,)),
                ):
                    kept = solve(split, b, *starts, cfg=cfg, keep_iterates=True)
                    got = solve(split, b, *starts, cfg=cfg)
                    assert got.iterates is None
                    assert len(kept.iterates) == kept.iterations_used + len(starts)
                    no_iterates = [replace(t, iterates=[]) for t in (got, kept)]
                    assert _trace_bits(no_iterates[0]) == _trace_bits(no_iterates[1])

    def test_memory_does_not_grow_with_the_iterations(self):
        rng = default_rng(19)
        d = weak_regular_double(rng, 50, 40, 20, rho=0.99, nullspace_mix=0.3)
        b = rng.uniform(0.5, 1.5, 50)
        check_convergence(d)  # the shared factors, in the memo before the solves
        peaks = {}
        tracemalloc.start()
        try:
            for keep in (False, True):
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                trace = solve_double(d, b, keep_iterates=keep)
                peaks[keep] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert trace.converged and trace.iterations_used > 3000
        iterate_bytes = trace.iterations_used * d.a.shape[1] * 8
        assert peaks[False] < iterate_bytes / 4
        assert peaks[True] > iterate_bytes


class TestMemo:
    """A solve builds its step matrices for itself: the splitting's memo
    keeps only the factors its consumers share."""

    def test_solves_read_the_owned_blocks(self, monkeypatch):
        # the solver steps on W's first block row as the splitting owns it:
        # no solve copies or negates a block
        d, s, b, _ = _slow_pair(8, 0.9)
        real, seen = solvers._advance, []

        def recording(blocks, *rest):
            seen.append(blocks)
            return real(blocks, *rest)

        monkeypatch.setattr(solvers, "_advance", recording)
        solve_double(d, b)
        solve_single(s, b)
        (pr, ps), (h,) = seen
        owned_pr, owned_ps = d.blocks()
        assert pr is owned_pr and ps is owned_ps and h is s.block()

    @pytest.mark.parametrize("solve", [solve_double, solve_single])
    def test_a_solve_leaves_the_memo_as_it_found_it(self, solve):
        d, _, b, _ = _slow_pair(8, 0.9)
        check_convergence(d)  # d is also its induced single splitting
        before = list(d._memo)
        solve(d, b)
        solve(d, 2.0 * b)
        assert list(d._memo) == before


def _follows_recursion(split, b, starts, cfg):
    """The trace of ``solve_double`` (or ``solve_single``, taking ``starts[0]``),
    after checking that every row it computed is, to rounding, the full
    recursion applied to the recorded rows before it, and that it stops as
    the full-coordinate reference loop does."""
    if isinstance(split, ProperDoubleSplitting):
        got, _, rows = _replayed(solve_double, split, b, *starts, cfg=cfg)
        want = _reference_solve_double(split, b, *starts, cfg)
        blocks = split.blocks()
        signs = (1.0, -1.0)
    else:
        got, _, rows = _replayed(solve_single, split, b, starts[0], cfg=cfg)
        want = _reference_solve_single(split, b, starts[0], cfg)
        blocks = (split.block(),)
        signs = (1.0,)
    c = split.pinvs()[1] @ b
    scales = [np.linalg.norm(block, 2) for block in blocks]
    h = len(blocks)
    xs = got.iterates[:h] + rows
    for k in range(h, len(xs)):
        before = xs[k - h : k][::-1]  # x_{k-1}, ..., x_{k-h}
        full = c + sum(sign * (block @ x) for sign, block, x in zip(signs, blocks, before))
        scale = sum(a * np.linalg.norm(x) for a, x in zip(scales, before)) + np.linalg.norm(c)
        assert np.linalg.norm(xs[k] - full) <= 1e-13 * scale
    assert (got.converged, got.diverged) == (want.converged, want.diverged)
    if cfg.solve_tol == 0.0 and got.residual_history[-1] == 0.0:
        # the solver stopped on steps of exactly 0, a floor that rounding
        # alone decides when to reach, and which the reference loop may reach
        # elsewhere or not within max_iter: the rows differ there, the limits
        # do not
        assert np.linalg.norm(got.limit - want.limit) <= 1e-13 * (1.0 + np.linalg.norm(want.limit))
    else:
        assert abs(got.iterations_used - want.iterations_used) <= 1
    return got


class TestRestrictedArithmetic:
    """Differential: the solvers step in range(P^+) coordinates; every row they
    compute must be the full-coordinate recursion on the rows before it, to
    rounding, and the run must stop as the full-coordinate loop does, with
    ``iterations_used`` off by at most one where a step lies within rounding
    of ``solve_tol``, or, where it stops on steps of exactly 0 at
    ``solve_tol = 0``, at a limit within rounding of that loop's."""

    @pytest.mark.parametrize("rho", [0.5, 0.95, 0.99, 1.05, 3.0])
    @pytest.mark.parametrize("shape", [(6, 5, 3), (5, 6, 2), (12, 10, 6)])
    def test_rows_follow_the_full_recursion(self, shape, rho):
        m, n, rank = shape
        rng = default_rng(int(1000 * rho) + 7 * m + n)
        d = weak_regular_double(rng, m, n, rank, rho=rho, nullspace_mix=0.3)
        b = rng.uniform(0.5, 1.5, m)
        starts = tuple(rng.standard_normal((2, n)))
        for cfg in _LOOP_CONFIGS.values():
            for x in ((None, None), starts):
                for split in (d, _single(d)):
                    _follows_recursion(split, b, x, cfg)

    def test_rows_follow_the_full_recursion_at_50x40(self):
        rng = default_rng(48)
        d = weak_regular_double(rng, 50, 40, 20, rho=0.95, nullspace_mix=0.3)
        b = rng.uniform(0.5, 1.5, 50)
        starts = tuple(rng.standard_normal((2, 40)))
        for cfg in _LOOP_CONFIGS.values():
            for x in ((None, None), starts):
                for split in (d, _single(d)):
                    _follows_recursion(split, b, x, cfg)


class TestRestrictedEdges:
    """The paths of the restricted-coordinate step that a generic rank r with
    0 < r < n and random starts do not take."""

    def test_rank_zero(self):
        # A = P = 0, R = S: P^+ = 0, so x_k = 0 exactly from the first
        # computed iterate on, and the run stops on two (double) or one
        # (single) zero steps at the limit A^+ b = 0
        rng = default_rng(49)
        zero = np.zeros((6, 5))
        r = rng.standard_normal((6, 5))
        d = make_pds(zero, zero, r, r)
        assert d.rowspace().shape == (5, 0)
        starts = tuple(rng.standard_normal((2, 5)))
        for split, used in ((d, 3), (_single(d), 2)):
            trace = _matches_reference(split, np.ones(6), starts, ToleranceConfig())
            assert trace.converged and trace.iterations_used == used
            h = len(trace.iterates) - used
            assert all(not x.any() for x in trace.iterates[h:])

    def test_full_rank_rows_follow_the_recursion(self):
        # r = n: V_r is a square orthonormal basis, and the rows are the full
        # recursion to rounding
        rng = default_rng(50)
        d = weak_regular_double(rng, 10, 8, 8, rho=0.95, nullspace_mix=0.3)
        assert d.rowspace().shape == (8, 8)
        b = rng.uniform(0.5, 1.5, 10)
        starts = tuple(rng.standard_normal((2, 8)))
        for cfg in (ToleranceConfig(), ToleranceConfig(solve_tol=0.0, max_iter=300)):
            for x in ((None, None), starts):
                for split in (d, _single(d)):
                    _follows_recursion(split, b, x, cfg)

    def test_starts_with_null_space_components(self):
        # starts far outside range(P^+): the first steps read them through
        # V_r^T B_j, and every computed iterate is then P^+ b plus a vector
        # of range(P^+)
        rng = default_rng(52)
        d = weak_regular_double(rng, 12, 10, 6, rho=0.9, nullspace_mix=0.3)
        basis = d.rowspace()
        null = np.linalg.svd(d.p)[2][6:]
        b = rng.uniform(0.5, 1.5, 12)
        c = d.pinvs()[1] @ b
        starts = tuple(rng.standard_normal(10) + 1e3 * rng.standard_normal(4) @ null for _ in "01")
        for split in (d, _single(d)):
            trace = _follows_recursion(split, b, starts, ToleranceConfig())
            assert trace.converged
            h = len(trace.iterates) - trace.iterations_used
            for x in trace.iterates[h:]:
                off = (x - c) - basis @ (basis.T @ (x - c))
                assert np.linalg.norm(off) <= 1e-13 * (1.0 + np.linalg.norm(x))

    @pytest.mark.parametrize("at", [1, 2])
    def test_overflow_inside_the_first_steps(self, at):
        # at 1, a huge x_1 makes x_2 huge; at 2, x_1 = 1e15 v with P^+R v = 0
        # leaves x_2 small, and x_3 = P^+R x_2 - P^+S x_1 + P^+ b is huge:
        # the guard fires inside the first two steps, which read the starts
        rng = default_rng(53)
        d = weak_regular_double(rng, 12, 10, 6, rho=0.9)
        pr, ps = d.blocks()
        v = np.linalg.svd(pr)[2][-1]
        assert np.linalg.norm(pr @ v) <= 1e-14 and np.linalg.norm(ps @ v) >= 1e-2
        x1 = 1e15 * (v if at == 2 else rng.standard_normal(10))
        cfg = ToleranceConfig()
        trace = _matches_reference(d, np.ones(12), (np.zeros(10), x1), cfg)
        assert trace.diverged and trace.iterations_used == at
        want = _reference_solve_double(d, np.ones(12), np.zeros(10), x1, cfg)
        assert want.diverged and want.iterations_used == at
        if at == 1:
            trace = _matches_reference(_single(d), np.ones(12), (x1, None), cfg)
            assert trace.diverged and trace.iterations_used == 1


class TestRangeCoordinates:
    """The stop rules read r + 1 numbers a row: each step norm they take is
    the norm of the difference of the lifted iterates, to rounding, and a
    solve lifts to R^n only what leaves it."""

    @pytest.mark.parametrize("start", ["zero", "random", "null"])
    @pytest.mark.parametrize("shape", [(12, 10, 6), (10, 8, 8), (6, 5, 0)], ids=["r<n", "r=n", "r=0"])
    def test_step_norms_are_the_lifted_steps(self, shape, start):
        # every residual_history entry is |x_k - x_{k-1}| of the kept, lifted
        # iterates to within 8 eps (|x_k| + |x_{k-1}|); the worst seen is
        # 0.9 eps at 50 x 40.  Starts with null-space parts of size 1e3 test
        # the first step, which leaves a start outside range(P^+)
        m, n, rank = shape
        rng = default_rng(60 + rank)
        if rank:
            d = weak_regular_double(rng, m, n, rank, rho=0.9, nullspace_mix=0.3)
        else:
            zero, r = np.zeros((m, n)), rng.standard_normal((m, n))
            d = make_pds(zero, zero, r, r)
        assert d.rowspace().shape == (n, rank)
        null = np.linalg.svd(d.p)[2][rank:]
        b = rng.uniform(0.5, 1.5, m)
        starts = {
            "zero": (None, None),
            "random": tuple(rng.standard_normal((2, n))),
            "null": tuple(rng.standard_normal(n) + 1e3 * rng.standard_normal(n - rank) @ null for _ in "01"),
        }[start]
        eps = np.finfo(float).eps
        for cfg in (ToleranceConfig(), ToleranceConfig(solve_tol=0.0, max_iter=400)):
            for solve, split, xs in ((solve_double, d, starts), (solve_single, _single(d), starts[:1])):
                trace = solve(split, b, *xs, cfg=cfg, keep_iterates=True)
                after = trace.iterates[len(xs) - 1 :]
                assert len(after) == len(trace.residual_history) + 1
                for step, x_prev, x in zip(trace.residual_history, after, after[1:]):
                    bound = 8 * eps * (np.linalg.norm(x) + np.linalg.norm(x_prev))
                    assert abs(step - np.linalg.norm(x - x_prev)) <= bound

    @pytest.mark.parametrize("keep", [False, True])
    def test_a_solve_lifts_the_limit_and_the_kept_rows_only(self, keep):
        # a default solve lifts one row, its limit; with keep_iterates it
        # also lifts each block's rows up to the stop
        d, s, b, starts = _slow_pair(8, 0.95)
        real = solvers._iterate
        for solve, split, xs in ((solve_double, d, starts), (solve_single, s, starts[:1])):
            lifted = []

            def counting(advance, lift, *rest):
                return real(advance, lambda z: lifted.append(len(z)) or lift(z), *rest)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(solvers, "_iterate", counting)
                trace = solve(split, b, *xs, keep_iterates=keep)
            assert trace.converged and trace.iterations_used > 2 * _CHUNK
            assert sum(lifted) == (trace.iterations_used + 1 if keep else 1)


def _at_radius(scaled, rho):
    """``scaled(t)`` at the scale t > 0, bisected, where rho(W) = rho."""
    lo, hi = 0.0, 1.0
    while spectral_radius(iteration_matrix(scaled(hi))) < rho:
        hi *= 2.0
    for _ in range(60):
        d = scaled(0.5 * (lo + hi))
        if spectral_radius(iteration_matrix(d)) < rho:
            lo = 0.5 * (lo + hi)
        else:
            hi = 0.5 * (lo + hi)
    return d


class TestMultiStep:
    """From a run's first ``_CHUNK`` block on, one gemv computes p rows from
    a p-row map: p is sized by the map's entries, the map is built only for
    long runs, only where p > 1 and only where it is finite, and every row is
    the full recursion to rounding."""

    def test_rows_per_call(self):
        # r = 20 is solve-small's rank, r = 120 pipeline-large's
        assert solvers._rows_per_call(20, 2) == 4
        assert solvers._rows_per_call(20, 1) == 8
        assert solvers._rows_per_call(120, 2) == solvers._rows_per_call(120, 1) == 1
        assert solvers._rows_per_call(0, 2) == solvers._rows_per_call(0, 1) == 1
        for r in range(130):
            for h in (1, 2):
                p = solvers._rows_per_call(r, h)
                assert _CHUNK % p == 0
                assert p == 1 or (p * (r + 1) - 1) * h * (r + 1) <= solvers._MAP_ENTRIES

    @pytest.mark.parametrize(("shape", "max_iter", "built"), [
        ((50, 40, 20), _CHUNK // 2, 0),
        ((50, 40, 20), 10000, 1),
        ((40, 36, 32), 10000, 0),  # p = 1 at r = 32 for the two-step scheme
        ((50, 40, 20), _CHUNK, 0),  # a run of _CHUNK steps: no _CHUNK block
    ])
    def test_the_map_is_built_only_where_it_is_used(self, shape, max_iter, built):
        m, n, rank = shape
        rng = default_rng(55)
        d = weak_regular_double(rng, m, n, rank, rho=0.99, nullspace_mix=0.3)
        b = rng.uniform(0.5, 1.5, m)
        calls = []
        real = solvers._multistep
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "_multistep", lambda *args: calls.append(args) or real(*args))
            trace = solve_double(d, b, cfg=ToleranceConfig(max_iter=max_iter))
        assert trace.iterations_used >= min(max_iter, _CHUNK + 1)
        assert len(calls) == built

    def test_huge_blocks_diverge_without_a_warning(self):
        # P = I, R = 1e50 G, S = 0: the steps overflow at once, and the run
        # stops as diverged on its second iterate, as it did when each step
        # was one row per gemv
        g = default_rng(54).uniform(0.0, 1.0, (5, 5))
        eye = np.eye(5)
        d = make_pds(eye - 1e50 * g, eye, 1e50 * g, np.zeros((5, 5)))
        for split in (d, _single(d)):
            trace = _matches_reference(split, np.ones(5), (None, None), ToleranceConfig())
            assert trace.diverged and trace.iterations_used == 2

    def test_an_overflowing_map_steps_one_row_per_call(self):
        # x_{k+1} = B x_k + c with B = [[0.95, 1e308], [0, 0.95]] and c = e_1:
        # the second coordinate stays 0 and the run converges to 20 e_1 in
        # about 500 steps, but B^2 overflows, so the 8-row map is not finite
        # and the steps stay one row per gemv
        big = np.array([[0.95, 1e308], [0.0, 0.95]])
        c, zero = np.array([1.0, 0.0]), np.zeros(2)
        advance, lift = solvers._advance([big], np.eye(2), c, [zero])
        cfg = ToleranceConfig()
        trace = _iterate(advance, lift, [zero], np.array([20.0, 0.0]), 1, False, cfg, True)
        assert trace.converged and trace.iterations_used > 2 * _CHUNK
        xs = trace.iterates
        for before, x in zip(xs, xs[1:]):
            assert x[1] == 0.0
            assert abs(x[0] - (0.95 * before[0] + 1.0)) <= 4e-16 * 20.0

    @pytest.mark.parametrize("rho", [0.9, 0.99, 1.05])
    def test_nonnormal_rows_follow_the_full_recursion(self, rho):
        # the square splittings of TestLoopMatchesReference's complex
        # spectrum test (p = 8 for both schemes at n = 6)
        rng = default_rng(int(100 * rho))
        n = 6
        eye = np.eye(n)
        g_r, g_s = rng.standard_normal((2, n, n))
        d = _at_radius(lambda t: make_pds(eye - t * (g_r - g_s), eye, t * g_r, t * g_s), rho)
        b = rng.uniform(0.5, 1.5, n)
        starts = tuple(rng.standard_normal((2, n)))
        for cfg in _LOOP_CONFIGS.values():
            for x in ((None, None), starts):
                for split in (d, _single(d)):
                    _follows_recursion(split, b, x, cfg)

    @pytest.mark.parametrize("rho", [0.9, 0.99, 1.05])
    def test_nonnormal_rows_follow_the_full_recursion_at_50x40(self, rho):
        # rank 20, P^+R = t Q G_R Q and P^+S = t Q G_S Q with Q = P^+P and
        # G_R, G_S standard normal: p = 4 for the two-step scheme, 8 for the
        # one-step scheme
        rng = default_rng(56 + int(100 * rho))
        p = rng.standard_normal((50, 20)) @ rng.standard_normal((20, 40))
        g_r, g_s = rng.standard_normal((2, 40, 40))
        q = pinv(p) @ p

        def scaled(t):
            r, s = t * p @ g_r @ q, t * p @ g_s @ q
            return make_pds(p - r + s, p, r, s)

        d = _at_radius(scaled, rho)
        assert d.rowspace().shape == (40, 20)
        b = rng.uniform(0.5, 1.5, 50)
        starts = tuple(rng.standard_normal((2, 40)))
        for cfg in _LOOP_CONFIGS.values():
            for x in ((None, None), starts):
                for split in (d, _single(d)):
                    _follows_recursion(split, b, x, cfg)
