"""The Perron bracket path of the spectral radii (``core._perron_bracket``).

When 0 < rank(P) <= n and the companion blocks are sign-correct, every
radius the checks report is the midpoint of a Collatz-Wielandt bracket from
power iteration on the full nonnegative map, square-corollary mode included.
The dense eigensolve of the full matrix is the independent reference.
Whenever the bracket gives up, the eigensolve it replaces must be reproduced
bit for bit: the restricted one when rank(P) < n, the full one when
rank(P) = n.  The same loop is the fallback of ``spectrum``'s dominant
vector (``core._perron_vector``).
"""

import numpy as np
import pytest
from numpy.random import default_rng

from propersplit import (
    DoubleSplittingClass,
    TheoremId,
    ToleranceConfig,
    check_convergence,
    check_semimonotone_equivalence,
    classify_double,
    compare,
    companion_from_blocks,
    iteration_matrix,
    make_pds,
    spectral_radius,
)
from propersplit import core
from propersplit.generators import (
    comparison_pair,
    random_frame,
    regular_double,
    weak_regular_double,
)


@pytest.fixture
def count_eigsolves(monkeypatch):
    """``count_eigsolves(thunk)`` runs thunk and returns how many times the
    radius code called ``core.spectral_radius``, its one dense eigensolve."""
    calls = []
    real = core.spectral_radius

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(core, "spectral_radius", counting)

    def count(thunk) -> int:
        before = len(calls)
        thunk()
        return len(calls) - before

    return count


@pytest.fixture
def bracket_outcomes(monkeypatch):
    """Every bracket the radius code asks for, as returned (``None`` when it
    gave up)."""
    outcomes = []
    real = core._perron_bracket

    def recording(blocks, budget):
        result = real(blocks, budget)
        outcomes.append(result)
        return result

    monkeypatch.setattr(core, "_perron_bracket", recording)
    return outcomes


def _without_bracket(monkeypatch, thunk):
    with monkeypatch.context() as patch:
        patch.setattr(core, "_perron_bracket", lambda blocks, budget: None)
        return thunk()


def _restricted_eig(basis, blocks):
    """The restricted eigensolve, as ``_restricted_radius`` makes it."""
    blocks = [basis.T @ (b @ basis) for b in blocks]
    m = blocks[0] if len(blocks) == 1 else companion_from_blocks(*blocks)
    return spectral_radius(m)


def _close(rho, full):
    return abs(rho - full) <= 1e-12 * max(1.0, full)


@pytest.fixture(scope="module")
def double_cases():
    """Weak regular and regular splittings with rank(P) < n at n = 60 to 150."""
    rng = default_rng(70)
    cases = []
    for m, n, rank in ((80, 60, 40), (120, 100, 50), (180, 150, 75)):
        for rho in (0.5, 0.95, 0.999, 1.02):
            cases.append(weak_regular_double(rng, m, n, rank, rho=rho, nullspace_mix=0.3))
            cases.append(regular_double(rng, m, n, rank, rho=rho))
    return cases


class TestDifferential:
    def test_radii_match_the_full_eigensolve(self, double_cases, bracket_outcomes):
        for d in double_cases:
            assert d.rowspace().shape[1] < d.a.shape[1]
            rep = check_convergence(d)
            assert _close(rep.rho_w, spectral_radius(iteration_matrix(d)))
            assert _close(rep.rho_induced, spectral_radius(d.block()))
            radius = check_semimonotone_equivalence(d).iteration_radius
            assert _close(radius, spectral_radius(d.block()))
        answered = [b for b in bracket_outcomes if b is not None]
        assert len(answered) == len(bracket_outcomes) == 3 * len(double_cases)

    def test_verdicts_equal_the_eigensolve_path(self, double_cases, monkeypatch):
        for d in double_cases:
            with_bracket = check_convergence(d), check_semimonotone_equivalence(d)
            without = _without_bracket(
                monkeypatch, lambda: (check_convergence(d), check_semimonotone_equivalence(d))
            )
            for got, want in zip(with_bracket, without):
                assert got.splitting_class is want.splitting_class
            assert with_bracket[0].converges == without[0].converges
            assert with_bracket[0].biconditional_agrees == without[0].biconditional_agrees
            assert with_bracket[0].guaranteed_convergent == without[0].guaranteed_convergent
            assert with_bracket[1].radius_below_one == without[1].radius_below_one
            assert with_bracket[1].agree == without[1].agree

    def test_comparison_verdicts_equal_the_eigensolve_path(self, monkeypatch, bracket_outcomes):
        rng = default_rng(71)
        for theorem in TheoremId:
            for m, n, rank in ((80, 60, 40), (150, 120, 60)):
                d1, d2 = comparison_pair(rng, theorem, m, n, rank)
                got = compare(theorem, d1, d2)
                want = _without_bracket(monkeypatch, lambda: compare(theorem, d1, d2))
                for rho, d in ((got.rho1, d1), (got.rho2, d2)):
                    assert _close(rho, spectral_radius(iteration_matrix(d)))
                assert got.conclusion_observed == want.conclusion_observed
                assert got.conclusion_predicted == want.conclusion_predicted
                assert got.branch_used is want.branch_used
        assert any(b is not None for b in bracket_outcomes)

    def test_bracket_holds_the_eigenvalue_and_meets_its_width(self, double_cases):
        for d in double_cases:
            r = d.rowspace().shape[1]
            n = d.a.shape[1]
            for blocks, full in (
                (d.blocks(), iteration_matrix(d)),
                ((d.block(),), d.block()),
            ):
                lo, hi, _ = core._perron_bracket(blocks, core._bracket_budget(blocks, r))
                rho = spectral_radius(full)
                assert lo <= rho <= hi
                target = max(core._BRACKET_RTOL, 4.0 * (n + 2) * np.finfo(float).eps / 2.0)
                assert (hi - lo) / hi <= target
                assert not lo <= 1.0 <= hi


def test_bracket_is_widened_by_its_rounding_bound():
    # every row sum of M is exactly 1/2, so every ratio (Me)_i / e_i is 1/2
    # and only the widening keeps the computed radius strictly inside
    n = 64
    m = np.full((n, n), 0.5 / n)
    lo, hi, v = core._perron_bracket((m,), core._bracket_budget((m,), n // 2))
    rounding = (n + 2) * np.finfo(float).eps / 2.0
    assert lo < 0.5 < hi
    assert lo == 0.5 * (1.0 - rounding) and hi == 0.5 * (1.0 + rounding)
    assert np.array_equal(v, np.ones(n))


def test_weak_regular_radii_take_no_eigensolve(count_eigsolves):
    d = weak_regular_double(default_rng(72), 150, 120, 60, rho=0.95, nullspace_mix=0.3)
    assert count_eigsolves(lambda: check_convergence(d)) == 0
    assert count_eigsolves(lambda: check_semimonotone_equivalence(d)) == 0


class TestFallback:
    """Cases where the bracket must give up: each radius equals the restricted
    eigensolve bit for bit."""

    @staticmethod
    def _assert_restricted(d, cfg=ToleranceConfig()):
        q = d.rowspace()
        assert 0 < q.shape[1] < q.shape[0]
        rep = check_convergence(d, cfg)
        assert rep.rho_w == _restricted_eig(q, d.blocks())
        assert rep.rho_induced == _restricted_eig(q, (d.block(),))

    def test_proper_double_only_blocks(self):
        # R -> R - cP and S -> S - cP keep A and U^+V = P^+(R - S) and shift
        # P^+R by -c P^+P, whose negative entries break the sign pattern
        g = weak_regular_double(default_rng(73), 120, 100, 50, rho=0.5)
        c = 0.05 * float(np.max(g.blocks()[0]))
        d = make_pds(g.a, g.p, g.r - c * g.p, g.s - c * g.p)
        assert np.min(d.blocks()[0]) < 0.0
        assert classify_double(d) is DoubleSplittingClass.PROPER_ONLY
        assert check_convergence(d).rho_w == _restricted_eig(d.rowspace(), d.blocks())

    def test_periodic_companion(self):
        # R = 0 (S absorbs it, A unchanged): W = [[0, -P^+S], [I, 0]] has
        # period 2, so its Collatz-Wielandt bracket never shrinks
        g = weak_regular_double(default_rng(74), 120, 100, 50, rho=0.8)
        d = make_pds(g.a, g.p, np.zeros_like(g.r), g.s - g.r)
        assert not np.any(d.blocks()[0])
        assert classify_double(d) is not DoubleSplittingClass.PROPER_ONLY
        assert check_convergence(d).rho_w == _restricted_eig(d.rowspace(), d.blocks())

    def test_bracket_straddling_one(self):
        # rho(W) = 1 makes I - P^+R + P^+S singular, so no proper splitting
        # has it; scaling the blocks of one to (B1 / rho, B2 / rho^2) scales
        # the companion's radius to 1 (and that of U^+V / rho likewise); the
        # bracket closes around 1, and the radius code must not use it
        d = weak_regular_double(default_rng(75), 120, 100, 50, rho=0.9)
        q = d.rowspace()
        pr, ps = d.blocks()
        rho_w = spectral_radius(iteration_matrix(d))
        m = d.block()
        for blocks in ((pr / rho_w, ps / rho_w**2), (m / spectral_radius(m),)):
            lo, hi, _ = core._perron_bracket(blocks, core._bracket_budget(blocks, 50))
            assert lo <= 1.0 <= hi
            radius = core._restricted_radius(q, blocks)
            assert radius == _restricted_eig(q, blocks)
            assert abs(radius - 1.0) <= 1e-12

    def test_zero_row_cutoff_case(self):
        # the relative cutoff 1e-3 drops P's second singular value, leaving
        # zero rows in P^+R and P^+S
        p = np.array([[1.0, 0.0], [0.0, 1e-5], [0.0, 0.0]])
        r = np.array([[0.5, 0.0], [0.0, 0.9e-5], [0.0, 0.0]])
        s = np.zeros((3, 2))
        coarse = ToleranceConfig(rank_rel_cutoff=1e-3)
        d = make_pds(p - r + s, p, r, s, coarse)
        assert d.rowspace().shape == (2, 1)
        self._assert_restricted(d, coarse)

    def test_zero_rows_stop_the_bracket(self):
        # a frame that leaves coordinates uncovered gives P^+ zero rows
        rng = default_rng(76)
        frame = random_frame(rng, 120, 100, 50, cover_right=False)
        d = weak_regular_double(rng, 120, 100, 50, rho=0.9, frame=frame)
        assert np.min(np.max(np.abs(d.blocks()[0]), axis=1)) == 0.0
        assert core._perron_bracket(d.blocks(), 50) is None
        self._assert_restricted(d)
        # the blocks miss exact signs by rounding, which alone stops the
        # bracket above; clamped to exact signs, the zero rows stop it
        pr, ps = d.blocks()
        assert core._perron_bracket((np.maximum(pr, 0.0), np.minimum(ps, 0.0)), 50) is None


def test_zero_iterate_entry_stops_the_bracket_at_the_first_step():
    class Counted(np.ndarray):
        matvecs = 0

        def __matmul__(self, other):
            Counted.matvecs += 1
            return np.asarray(self) @ other

    # reducible and nonnegative: W e = (2, 0), so no positive iterate follows
    w = np.array([[1.0, 1.0], [0.0, 0.0]]).view(Counted)
    assert core._perron_bracket((w,), 50) is None
    assert Counted.matvecs == 1


def test_rank_zero_skips_the_bracket_and_full_rank_gives_up_to_the_full_eigensolve(
    bracket_outcomes,
):
    zero = np.zeros((3, 2))
    r = np.array([[1.0, 2.0], [0.5, 0.0], [0.0, 3.0]])
    check_convergence(make_pds(zero, zero, r, r))
    assert bracket_outcomes == []
    # full rank, R = 0 (S absorbs it, A unchanged): W has period 2, so the
    # bracket gives up and the full companion is eigensolved
    g = weak_regular_double(default_rng(77), 7, 5, 5, rho=0.9)
    d = make_pds(g.a, g.p, np.zeros_like(g.r), g.s - g.r)
    assert d.rowspace().shape == (5, 5)
    assert check_convergence(d).rho_w == spectral_radius(iteration_matrix(d))
    assert bracket_outcomes[0] is None


class TestFullRank:
    """Square full-rank weak regular splittings: the bracket runs at r = n,
    and in square-corollary mode, with no eigensolve."""

    @pytest.mark.parametrize("n", [40, 120])
    def test_check_convergence(self, n, count_eigsolves, bracket_outcomes, monkeypatch):
        d = weak_regular_double(default_rng(78), n, n, n, 0.95)
        assert d.rowspace().shape == (n, n)
        assert count_eigsolves(lambda: check_convergence(d)) == 0
        got = check_convergence(d)
        assert len(bracket_outcomes) == 4 and None not in bracket_outcomes
        assert _close(got.rho_w, spectral_radius(iteration_matrix(d)))
        assert _close(got.rho_induced, spectral_radius(d.block()))
        want = _without_bracket(monkeypatch, lambda: check_convergence(d))
        assert got.splitting_class is want.splitting_class
        assert got.converges == want.converges
        assert got.biconditional_agrees == want.biconditional_agrees
        assert got.guaranteed_convergent == want.guaranteed_convergent

    def test_square_corollary_compare(self, count_eigsolves, bracket_outcomes, monkeypatch):
        # the companions of this pair mix fast (second eigenvalue modulus at
        # most 0.6 rho), so both brackets answer within their budget
        d1, d2 = comparison_pair(default_rng(3), TheoremId.WEAK_VS_WEAK, 40, 40, 40)
        run = lambda: compare(TheoremId.WEAK_VS_WEAK, d1, d2, square_corollary=True)  # noqa: E731
        bracket_outcomes.clear()  # the generator checks its pair through the same code
        assert count_eigsolves(run) == 0
        assert len(bracket_outcomes) == 2 and None not in bracket_outcomes

    def test_square_corollary_verdicts_equal_the_eigensolve_path(self, monkeypatch):
        rng = default_rng(79)
        for theorem in TheoremId:
            d1, d2 = comparison_pair(rng, theorem, 40, 40, 40)
            run = lambda: compare(theorem, d1, d2, square_corollary=True)  # noqa: E731
            got = run()
            for rho, d in ((got.rho1, d1), (got.rho2, d2)):
                assert _close(rho, spectral_radius(iteration_matrix(d)))
            want = _without_bracket(monkeypatch, run)
            assert got.conclusion_observed == want.conclusion_observed
            assert got.conclusion_predicted == want.conclusion_predicted
            assert got.branch_used is want.branch_used


def test_perron_vector_falls_back_to_the_bracket_iterate(bracket_outcomes):
    # an eigenvector basis with no usable column: every one is mixed-sign
    rng = default_rng(80)
    m = rng.uniform(0.1, 1.0, (6, 6))
    vals = np.linalg.eigvals(m)
    rho = float(np.max(np.abs(vals)))
    vecs = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    assert np.all(np.min(vecs, axis=0) < 0.0) and np.all(np.max(vecs, axis=0) > 0.0)
    cfg = ToleranceConfig()
    v = core._perron_vector(m, vals, vecs, rho, cfg)
    assert len(bracket_outcomes) == 1 and bracket_outcomes[0] is not None
    assert np.min(v) >= 0.0 and np.max(v) == 1.0
    assert np.linalg.norm(m @ v - rho * v) <= cfg.spectral_tol
