"""A^+ derived from U's SVD (Berman & Plemmons), and the properness gate on it.

Differential: the derived A^+ against numpy's own pseudoinverse, U^+ against
``pinv(U)`` bit for bit, every accept/reject decision against a copy of the
gate that takes A's own SVD, and the rank-r residual bounds against the dense
projector residuals, both as values and as the decisions they make.
"""

from pathlib import Path

import numpy as np
import pytest
from numpy.random import default_rng

from propersplit import (
    DEFAULT_TOLERANCES,
    NotProperError,
    TheoremId,
    ToleranceConfig,
    check_projector_identities,
    compare,
    make_pds,
    make_proper_splitting,
    max_abs_diff,
    pinv,
    read_matrix,
    solve_double,
)
from propersplit import splitting
from propersplit.generators import (
    _blockdiag_weak_pair,
    comparison_pair,
    weak_regular_double,
)
from propersplit.splitting import ProperSplitting, _projector_residuals, _residual_bounds

from builders import perturbed_proper_splitting, rank_deficient_matrix

EPS = np.finfo(float).eps
DATA = Path(__file__).resolve().parent / "data"


def _svd_gate(a, u, cfg=DEFAULT_TOLERANCES):
    """The gate from A's own SVD: ``None`` when it accepts, else the two
    projector residuals a NotProperError carries."""
    a_pinv, u_pinv = pinv(a, cfg), pinv(u, cfg)
    range_res = max_abs_diff(a @ a_pinv, u @ u_pinv)
    rowspace_res = max_abs_diff(a_pinv @ a, u_pinv @ u)
    if range_res <= cfg.eq_abs_tol and rowspace_res <= cfg.eq_abs_tol:
        return None
    return range_res, rowspace_res


def _gate(a, u, cfg=DEFAULT_TOLERANCES):
    """``make_proper_splitting``'s decision in ``_svd_gate``'s terms; an
    accepted splitting's A^+ must be within 1e-12 relative of ``pinv(A)``."""
    try:
        s = make_proper_splitting(a, u, cfg)
    except NotProperError as exc:
        return exc.range_residual, exc.nullspace_residual
    want = pinv(a, cfg)
    assert max_abs_diff(s.pinvs()[0], want) <= 1e-12 * np.max(np.abs(want))
    return None


def _proper_pairs():
    """(A, U) of proper splittings: m > n, m < n, square, rank-deficient and
    full-rank, from each generator and the bundled examples."""
    rng = default_rng(20)
    pairs = []
    for m, n, rank in [(8, 6, 3), (6, 8, 3), (7, 7, 4), (9, 6, 6), (6, 9, 6), (12, 10, 5)]:
        for rho in (0.5, 1.05):
            d = weak_regular_double(rng, m, n, rank, rho=rho, nullspace_mix=0.3)
            pairs.append((d.a, d.p))
        s = perturbed_proper_splitting(rng, rank_deficient_matrix(rng, m, n, rank))
        pairs.append((s.a, s.u))
    for theorem in TheoremId:
        for d in comparison_pair(rng, theorem, 6, 5, 3):
            pairs.append((d.a, d.p))
    return pairs


PAIRS = _proper_pairs()


@pytest.fixture(scope="module")
def bundled(ex1, ex2):
    return [(ex.a, p) for ex in (ex1, ex2) for p in (ex.p1, ex.p2)]


def _all_pairs(bundled):
    return PAIRS + bundled


class TestNotProperPair:
    """``A = I``, ``U = diag(1, 0)``: the derived A^+ = diag(1, 0) passes both
    projector identities, so only the test of how far A leaves range(U)
    rejects it."""

    a = np.eye(2)
    u = np.diag([1.0, 0.0])

    def test_single(self):
        with pytest.raises(NotProperError) as exc:
            make_proper_splitting(self.a, self.u)
        assert exc.value.range_residual == 1.0
        assert exc.value.nullspace_residual == 1.0

    def test_double(self):
        r = self.u - self.a
        with pytest.raises(NotProperError) as exc:
            make_pds(self.a, self.u, r, np.zeros((2, 2)))
        assert exc.value.range_residual == 1.0
        assert exc.value.nullspace_residual == 1.0


class TestFullRowRank:
    """At r = m, ``range(U)`` is all of R^m, so the range test, whose leak
    there is rounding alone, is skipped and the derived A^+ is kept."""

    @pytest.fixture
    def pinv_calls(self, monkeypatch):
        calls = []

        def counting(a, cfg=DEFAULT_TOLERANCES):
            calls.append(a.shape)
            return pinv(a, cfg)

        monkeypatch.setattr(splitting, "pinv", counting)
        return calls

    def test_leak_above_the_limit_keeps_the_derived_pinv(self, pinv_calls):
        # the leak reads 3.9e-16 against a limit of 2.5e-16
        a = np.array([[2.0, 1.0], [0.0, 1.0]])
        u = np.array([[3.0, 1.0], [0.0, 2.0]])
        s = make_proper_splitting(a, u)
        assert pinv_calls == []
        assert np.array_equal(s.pinvs()[0], s._from_u_svd()[0])
        assert max_abs_diff(s.pinvs()[0], np.linalg.inv(a)) <= 1e-15

    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_random_square_splittings_take_no_svd_of_a(self, n, pinv_calls):
        rng = default_rng(28 + n)
        kept = 0
        while kept < 60:
            u = rng.uniform(-2.0, 2.0, (n, n))
            a = u - rng.uniform(0.0, 0.5, (n, n))
            if max(np.linalg.cond(a), np.linalg.cond(u)) > 1e3:
                continue
            s = make_proper_splitting(a, u)
            assert max_abs_diff(s.pinvs()[0], np.linalg.inv(a)) <= 1e-10
            kept += 1
        assert pinv_calls == []

    def test_rank_deficient_u_still_takes_the_range_test(self):
        # r = 1 < m = 2: the derived A^+ = diag(1, 0) is refused
        a_pinv, _, _, bounds = ProperSplitting(
            np.eye(2), np.diag([1.0, 0.0]), np.diag([0.0, -1.0]), DEFAULT_TOLERANCES
        )._from_u_svd()
        assert a_pinv is None and bounds is None


class TestDerivedPseudoinverse:
    def test_a_pinv_matches_numpy(self, bundled):
        for a, u in _all_pairs(bundled):
            a_pinv = make_proper_splitting(a, u).pinvs()[0]
            want = np.linalg.pinv(a, rcond=max(a.shape) * EPS)
            assert max_abs_diff(a_pinv, want) <= 1e-12 * np.max(np.abs(want))

    def test_u_pinv_is_pinv_bit_for_bit(self, bundled):
        for a, u in _all_pairs(bundled):
            s = make_proper_splitting(a, u)
            assert np.array_equal(s.pinvs()[1], pinv(u))

    def test_zero_v_gives_u_pinv(self, bundled):
        # V = 0: K = I and A^+ = U^+ bit for bit
        for _, u in _all_pairs(bundled):
            a_pinv, u_pinv = make_proper_splitting(u, u).pinvs()
            assert np.array_equal(a_pinv, u_pinv)


def test_huge_entries_keep_the_derived_pinv():
    """The bundled square pair times 2^600: the range test's squared norms
    would overflow (an error under this suite's warning filter), but its
    vectors are scaled by a power of two first, so A^+ is the unscaled one
    times 2^-600 bit for bit and the comparison reads the same radius."""
    mats = {k: read_matrix(DATA / f"sq_{k}.mat") for k in ("a", "p1", "r1", "s1", "p2", "r2", "s2")}
    scale = 2.0**600
    pairs = []
    for c in (1.0, scale):
        a = mats["a"] * c
        pairs.append([make_pds(a, *(mats[f"{k}{i}"] * c for k in "prs")) for i in (1, 2)])
    (d1, d2), (big1, big2) = pairs
    assert np.array_equal(big1.pinvs()[0], d1.pinvs()[0] / scale)
    want = compare(TheoremId.REGULAR_VS_WEAK, d1, d2)
    got = compare(TheoremId.REGULAR_VS_WEAK, big1, big2)
    assert got.rho1 == want.rho1 and got.rho2 == want.rho2
    assert got.conclusion_observed and want.conclusion_observed


def _rotation(basis, i, j, angle):
    """``basis G basis^T`` for the plane rotation G of columns i and j."""
    g = np.eye(basis.shape[0])
    c, s = np.cos(angle), np.sin(angle)
    g[i, i] = g[j, j] = c
    g[i, j], g[j, i] = -s, s
    return basis @ g @ basis.T


def _perturbed(a, u, size):
    """(name, A', U'): A gains rank outside U's subspaces, U gains rank A
    lacks, and A's or U's range or row space turns out of U's by ``size``."""
    left, sv, right_t = np.linalg.svd(u)
    right = right_t.T
    m, n = u.shape
    r = int(np.count_nonzero(sv > max(m, n) * EPS * sv[0]))
    out = []
    if r < m and r < n:
        extra = size * np.outer(left[:, r], right[:, r])
        out += [("extra rank", a + extra, u), ("rank drop", a, u + extra)]
    if r < m:
        q = _rotation(left, 0, r, size)
        out += [("A range", q @ a, u), ("U range", a, q @ u)]
    if r < n:
        q = _rotation(right, 0, r, size)
        out += [("A row space", a @ q, u), ("U row space", a, u @ q)]
    return out


class TestGateMatchesSvdGate:
    """Every decision, and every NotProperError's residuals, equal those of
    the gate that takes A's own SVD."""

    @pytest.mark.parametrize("size", [1e-13, 1e-7])
    def test_perturbed_pairs(self, bundled, size):
        accepted = set()
        for a, u in _all_pairs(bundled):
            for name, a2, u2 in _perturbed(a, u, size):
                want = _svd_gate(a2, u2)
                assert _gate(a2, u2) == want, name
                accepted.add(want is None)
        # the smaller size leaves some pairs proper, the larger none
        assert accepted == ({True, False} if size < 1e-10 else {False})

    def test_rejected_derived_pinv_keeps_a_own_pinv(self):
        # A's range turned by 1e-11 out of U's: too far for the derived A^+,
        # near enough for eq_abs_tol, so the splitting keeps pinv(A) and not
        # the derived A^+ (about 1e-11 relative away from it)
        for a, u in PAIRS[:6]:
            [a2] = [a2 for name, a2, _ in _perturbed(a, u, 1e-11) if name == "A range"]
            assert _svd_gate(a2, u) is None
            assert np.array_equal(make_proper_splitting(a2, u).pinvs()[0], pinv(a2))

    def test_loose_tolerance_keeps_a_own_pinv(self):
        # eq_abs_tol = 10 accepts pairs whose ranks differ, under either gate;
        # such a splitting keeps pinv(A), not an A^+ derived from U's SVD
        cfg = ToleranceConfig(eq_abs_tol=10.0)
        pairs = [(np.diag([1.0, 0.0]), np.eye(2))]
        for a, u in PAIRS[:6]:
            pairs += [(a2, u2) for name, a2, u2 in _perturbed(a, u, 1e-7) if name == "rank drop"]
        for a, u in pairs:
            assert _svd_gate(a, u, cfg) is None
            assert np.array_equal(make_proper_splitting(a, u, cfg).pinvs()[0], pinv(a, cfg))


class TestOtherCutoff:
    """A rank cutoff other than the default, under which U's rank drops and
    A's does not: the pair, proper under the default cutoff with A's own
    A^+ = diag(1, 5000), is not proper under this one, and construction
    under it refuses the pair."""

    a = np.diag([1.0, 2e-4])
    u = np.diag([1.0, 1e-5])
    cfg = ToleranceConfig(rank_rel_cutoff=1e-4)

    def test_single(self):
        s = make_proper_splitting(self.a, self.u)
        assert max_abs_diff(s.pinvs()[0], np.diag([1.0, 5000.0])) <= 1e-12 * 5000
        with pytest.raises(NotProperError) as exc:
            make_proper_splitting(self.a, self.u, self.cfg)
        assert (exc.value.range_residual, exc.value.nullspace_residual) == (1.0, 1.0)

    def test_double(self):
        d = make_pds(self.a, self.u, self.u - self.a, np.zeros((2, 2)))
        b = np.array([1.0, 1e-3])
        trace = solve_double(d, b, cfg=self.cfg)
        assert np.array_equal(trace.reference_solution, d.pinvs()[0] @ b)
        with pytest.raises(NotProperError):
            make_pds(self.a, self.u, self.u - self.a, np.zeros((2, 2)), self.cfg)


def _dense_rule(a, u, cfg, v=None):
    """The properness check decided on the dense residuals alone, the
    reference every decision of the bounds must match: ``(kept A^+,
    residuals, proper)``.  V is ``U - A`` unless given (a double splitting's
    ``R - S``)."""
    s = ProperSplitting(a, u, u - a if v is None else v, cfg)
    a_pinv, u_pinv = s._from_u_svd()[:2]
    if a_pinv is not None:
        res = _projector_residuals(s, a_pinv, u_pinv)
    if a_pinv is None or max(res) > 1e-10:
        a_pinv = pinv(a, cfg)
        res = _projector_residuals(s, a_pinv, u_pinv)
    return a_pinv, res, max(res) <= cfg.eq_abs_tol


def _gate_doubles():
    """Double splittings for the bound gate: m > n, m < n, square P of full
    rank (r = n) and rank-deficient, from each double generator, with both
    members of every comparison pair."""
    rng = default_rng(27)
    out = []
    for m, n, rank in [(8, 6, 3), (6, 8, 3), (6, 6, 6), (9, 7, 7), (7, 9, 7), (30, 24, 12)]:
        out.append(weak_regular_double(rng, m, n, rank, rho=0.9, nullspace_mix=0.3))
        out.extend(_blockdiag_weak_pair(rng, m, n, min(rank, m, n), DEFAULT_TOLERANCES))
    for theorem in TheoremId:
        for shape in [(6, 5, 3), (5, 6, 3), (5, 5, 5)]:
            out.extend(comparison_pair(rng, theorem, *shape))
    return out


GATE_DOUBLES = _gate_doubles()
# eq_abs_tol below 1e-10 is the README's case where the subspace check is
# stricter than the check on the derived A^+; at 1e-14 no bound clears it
GATE_CONFIGS = [
    DEFAULT_TOLERANCES,
    ToleranceConfig(eq_abs_tol=1e-12),
    ToleranceConfig(eq_abs_tol=1e-14),
]


def _gate_pairs(bundled):
    """(A, U) pairs: the gate's doubles, r = 0 (zero U and A), the bundled
    examples, and every perturbed pair of the leak tests."""
    pairs = [(d.a, d.p) for d in GATE_DOUBLES] + [(np.zeros((4, 3)), np.zeros((4, 3)))]
    pairs += bundled
    for a, u in PAIRS[:6] + bundled:
        pairs += [(a2, u2) for size in (1e-13, 1e-11, 1e-7) for _, a2, u2 in _perturbed(a, u, size)]
    return pairs


class TestResidualBounds:
    """The rank-r bounds against the dense residuals they stand in for."""

    def test_bounds_cover_the_dense_residuals(self, bundled):
        # every derived A^+, kept or not: each bound is at least its dense
        # residual, the rounding allowance being part of the bound
        seen = 0
        for a, u in _gate_pairs(bundled):
            s = ProperSplitting(a, u, u - a, DEFAULT_TOLERANCES)
            a_pinv, u_pinv, _, bounds = s._from_u_svd()
            if a_pinv is None:
                continue
            seen += 1
            dense = _projector_residuals(s, a_pinv, u_pinv)
            assert bounds[0] >= dense[0] and bounds[1] >= dense[1]
        assert seen > len(GATE_DOUBLES)

    def test_bounds_hold_for_any_x(self):
        # the inequalities behind the bounds hold for any n x r X: with
        # A = U_r diag(s) V_r^T and X = V_r / s + Z, Z orthogonal to V_r,
        # Y T = V_r^T, so the row space residual Z T is seen only by the
        # (X - V_r Y) T term, and the range residual A Z U_r^T = 0
        rng = default_rng(30)
        for m, n, r in [(9, 7, 4), (7, 9, 4), (8, 6, 5)]:
            u_r = np.linalg.qr(rng.standard_normal((m, r)))[0]
            v_r = np.linalg.qr(rng.standard_normal((n, r)))[0]
            s_r = np.linspace(2.0, 1.0, r)
            a = (u_r * s_r) @ v_r.T
            for size in (0.0, 1e-6):
                z = size * (np.eye(n) - v_r @ v_r.T) @ rng.standard_normal((n, r))
                x = v_r / s_r + z
                t = u_r.T @ a
                bounds = _residual_bounds(a, x, t, u_r, s_r, v_r)
                assert bounds[0] >= np.max(np.abs(a @ x @ u_r.T - u_r @ u_r.T))
                assert bounds[1] >= np.max(np.abs(x @ t - v_r @ v_r.T))
                assert bool(bounds.max() <= 1e-12) == (size == 0.0)

    def test_generated_splittings_clear_on_their_bounds(self):
        # the gate decides these without a dense product: their bounds clear
        # 1e-10, are the ones construction kept, and cover the dense residuals
        for d in GATE_DOUBLES:
            bounds = d._from_u_svd()[3]
            assert np.array_equal(d._factors()[3], bounds)
            rep = check_projector_identities(d)
            assert bounds.max() <= 1e-10
            assert bounds[0] >= rep.range_residual and bounds[1] >= rep.rowspace_residual

    @pytest.mark.parametrize("cfg", GATE_CONFIGS, ids=["default", "eq1e-12", "eq1e-14"])
    def test_decisions_equal_the_dense_rule(self, bundled, cfg):
        # proper or NotProperError with the same residuals, and the derived or
        # A's own A^+, bit for bit; for double splittings through make_pds too
        decided = set()
        for a, u in _gate_pairs(bundled):
            want_pinv, want_res, want_proper = _dense_rule(a, u, cfg)
            decided.add(want_proper)
            try:
                s = make_proper_splitting(a, u, cfg)
            except NotProperError as exc:
                assert not want_proper
                assert (exc.range_residual, exc.nullspace_residual) == want_res
                continue
            assert want_proper
            assert np.array_equal(s.pinvs()[0], want_pinv)
            rep = check_projector_identities(s, cfg)
            assert (rep.range_residual, rep.rowspace_residual, rep.passed) == (*want_res, True)
        for d in GATE_DOUBLES:
            want_pinv, want_res, want_proper = _dense_rule(d.a, d.p, cfg, d.v)
            try:
                got = make_pds(d.a, d.p, d.r, d.s, cfg)
            except NotProperError as exc:
                assert not want_proper
                assert (exc.range_residual, exc.nullspace_residual) == want_res
                continue
            assert want_proper
            assert np.array_equal(got.pinvs()[0], want_pinv)
        assert decided == {True, False}

    def test_eq_abs_tol_below_rounding_rejects_on_the_dense_residuals(self):
        # at eq_abs_tol = 1e-16 no bound clears, and the dense residuals reject
        # these splittings with their own values
        cfg = ToleranceConfig(eq_abs_tol=1e-16)
        rejected = 0
        for d in GATE_DOUBLES:
            _, want_res, want_proper = _dense_rule(d.a, d.p, cfg)
            if want_proper:
                continue
            rejected += 1
            with pytest.raises(NotProperError) as exc:
                make_proper_splitting(d.a, d.p, cfg)
            assert (exc.value.range_residual, exc.value.nullspace_residual) == want_res
        assert rejected
