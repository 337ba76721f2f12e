"""Tests for proper double splittings and the companion iteration matrix."""

import json
from pathlib import Path

import numpy as np
import pytest
from numpy.random import default_rng

from propersplit import (
    ConvergenceReport,
    DecompositionMismatchError,
    DoubleSplittingClass,
    NotProperError,
    ProperDoubleSplitting,
    ProperSplitting,
    ShapeMismatchError,
    TheoremId,
    ToleranceConfig,
    check_convergence,
    check_projector_identities,
    check_semimonotone_equivalence,
    classify_double,
    classify_single,
    compare,
    companion_from_blocks,
    is_nonneg,
    iteration_matrix,
    make_pds,
    make_proper_splitting,
    max_abs_diff,
    pinv,
    read_matrix,
    solve_double,
    solve_single,
    spectral_radius,
)
from propersplit import splitting
from propersplit.cli import main
from propersplit.generators import (
    comparison_pair,
    nonneg_block_pair,
    regular_double,
    weak_regular_double,
    weak_regular_single,
)

DATA = Path(__file__).resolve().parent / "data"


def identity_pds(n=2):
    eye = np.eye(n)
    return make_pds(eye, eye, np.zeros((n, n)), np.zeros((n, n)))


class TestMakePds:
    def test_trivial(self):
        d = identity_pds()
        assert np.array_equal(d.p, np.eye(2))

    def test_first_example_valid(self, ex1_splittings):
        d1, d2 = ex1_splittings
        assert d1.a.shape == (2, 3) and d2.a.shape == (2, 3)

    def test_mismatch_when_s_dropped(self, ex1):
        with pytest.raises(DecompositionMismatchError) as exc:
            make_pds(ex1.a, ex1.p1, ex1.r1, np.zeros_like(ex1.s1))
        assert exc.value.residual > 0.9

    def test_shape_mismatch(self, ex1):
        with pytest.raises(ShapeMismatchError):
            make_pds(ex1.a, ex1.p1, ex1.r1, np.zeros((3, 2)))

    def test_mismatch_value_is_max_abs_diff_bit_for_bit(self):
        # random quadruples whose rounding in P - R + S differs by order of
        # evaluation: the reported residual is max_abs_diff(A, P - R + S)'s
        rng = default_rng(29)
        for _ in range(20):
            p, r, s = (rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-3, 4) for _ in range(3))
            a = p - r + s + rng.uniform(-1e-9, 1e-9, (7, 5))
            with pytest.raises(DecompositionMismatchError) as exc:
                make_pds(a, p, r, s, ToleranceConfig(eq_abs_tol=1e-300))
            assert exc.value.residual == max_abs_diff(a, p - r + s)


class TestClassifyDouble:
    def test_first_example_split1_regular(self, ex1_splittings):
        assert classify_double(ex1_splittings[0]) is DoubleSplittingClass.REGULAR

    def test_first_example_split2_actual_tag(self, ex1_splittings):
        # R2 and -S2 happen to be entrywise nonnegative, so the strongest tag
        # is regular; the weak regular predicates it implies are what the
        # comparison hypotheses consume
        assert classify_double(ex1_splittings[1]) is DoubleSplittingClass.REGULAR

    def test_proper_only(self):
        # P^+ with a negative entry and R = S = 0
        p = np.array([[1.0, 2.0], [0.0, 1.0]])
        d = make_pds(p, p, np.zeros((2, 2)), np.zeros((2, 2)))
        assert classify_double(d) is DoubleSplittingClass.PROPER_ONLY

    def test_generated_weak_regular(self):
        rng = default_rng(12)
        seen_weak = False
        for _ in range(20):
            d = weak_regular_double(rng, 4, 5, 2, rho=0.6, nullspace_mix=0.5)
            tag = classify_double(d)
            assert tag is not DoubleSplittingClass.PROPER_ONLY
            seen_weak = seen_weak or tag is DoubleSplittingClass.WEAK_REGULAR
        assert seen_weak  # the nullspace mix pushes R, S off the nonneg cone

    def test_regular_implies_weak_predicates(self, ex1_splittings, cfg):
        from propersplit import is_nonneg, pinv

        for d in ex1_splittings:
            p_pinv = pinv(d.p, cfg)
            assert is_nonneg(p_pinv, cfg)
            assert is_nonneg(p_pinv @ d.r, cfg)
            assert is_nonneg(-(p_pinv @ d.s), cfg)


class TestIterationMatrix:
    def test_trivial_blocks(self):
        w = iteration_matrix(identity_pds())
        assert np.array_equal(w[:2, :2], np.zeros((2, 2)))
        assert spectral_radius(w) == 0.0

    def test_first_example_blocks(self, ex1, ex1_splittings):
        w1 = iteration_matrix(ex1_splittings[0])
        assert np.max(np.abs(w1[:3, :3] - ex1.p1r1)) < 1e-12
        assert np.max(np.abs(w1[:3, 3:] + ex1.p1s1)) < 1e-12

    def test_second_example_blocks(self, ex2, ex2_splittings):
        w2 = iteration_matrix(ex2_splittings[1])
        assert np.max(np.abs(w2[:3, :3] - ex2.p2r2)) < 1e-12
        assert np.max(np.abs(w2[:3, 3:] + ex2.p2s2)) < 1e-12

    def test_assembly_identity_blocks_exact(self):
        rng = default_rng(13)
        d = weak_regular_double(rng, 4, 5, 3, rho=0.7)
        w = iteration_matrix(d)
        n = d.a.shape[1]
        assert np.array_equal(w[n:, :n], np.eye(n))
        assert np.array_equal(w[n:, n:], np.zeros((n, n)))


class TestInducedSingle:
    def test_trivial(self):
        s = identity_pds()
        assert np.array_equal(s.v, np.zeros((2, 2)))

    def test_first_example(self, ex1, ex1_splittings):
        s = ex1_splittings[0]
        assert np.array_equal(s.v, np.array([[2.0, 1.0, 0.0], [1.0, 0.0, 0.0]]))

    def test_second_example(self, ex2, ex2_splittings):
        s = ex2_splittings[0]
        assert np.array_equal(s.v, np.array([[2.0, 0.0, 2.0], [0.0, 2.0, 0.0]]))

    def test_is_the_double_splitting_itself(self, ex1_splittings):
        d = ex1_splittings[0]
        assert d.p is d.u and np.array_equal(d.v, d.r - d.s)
        assert not d.v.flags.writeable


class TestCheckConvergence:
    def test_trivial(self):
        rep = check_convergence(identity_pds())
        assert rep.rho_w == 0.0 and rep.rho_induced == 0.0
        assert rep.converges and rep.biconditional_agrees

    @pytest.mark.parametrize("gap, agrees", [(0.5, True), (2.0, False)])
    def test_radii_across_one_agree_only_within_spectral_tol(self, monkeypatch, gap, agrees):
        # rho(W) below 1 and rho(P^+(R-S)) above it, each gap * spectral_tol
        # away from 1: inside the band the verdicts count as consistent
        cfg = ToleranceConfig(spectral_tol=1e-6)
        radii = {2: 1.0 - gap * cfg.spectral_tol, 1: 1.0 + gap * cfg.spectral_tol}
        monkeypatch.setattr(ProperDoubleSplitting, "companion_radius", lambda d, c: radii[2])
        monkeypatch.setattr(ProperSplitting, "radius", lambda s, c: radii[1])
        rep = check_convergence(identity_pds(), cfg)
        assert rep.splitting_class is DoubleSplittingClass.REGULAR
        assert (rep.rho_w, rep.rho_induced) == (radii[2], radii[1])
        assert rep.biconditional_agrees is agrees

    def test_first_example_split1(self, ex1, ex1_splittings):
        rep = check_convergence(ex1_splittings[0])
        assert abs(rep.rho_w - ex1.rho_w1) < 5e-4
        assert rep.semi_monotone and rep.guaranteed_convergent and rep.converges

    def test_first_example_split2(self, ex1, ex1_splittings):
        rep = check_convergence(ex1_splittings[1])
        assert abs(rep.rho_w - ex1.rho_w2) < 5e-4
        assert rep.converges

    def test_biconditional_both_sides(self):
        rng = default_rng(14)
        for i in range(24):
            rho = 0.6 if i % 2 == 0 else 1.3
            d = weak_regular_double(rng, 4, 5, 2, rho=rho)
            rep = check_convergence(d)
            assert rep.biconditional_agrees
            assert rep.converges == (rho < 1.0)
            assert abs(rep.rho_induced - rho) < 1e-8

    def test_block_lemma(self):
        # [[B, C], [I, 0]] >= 0 with rho(B + C) < 1 has spectral radius < 1
        rng = default_rng(15)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            b, c = nonneg_block_pair(rng, n, rho=float(rng.uniform(0.1, 0.99)))
            w = companion_from_blocks(b, -c)
            assert spectral_radius(w) < 1.0 + 1e-10


class TestOwnedPseudoinverses:
    def test_pipeline_factors_each_operand_once(self, count_svds):
        rng = default_rng(16)
        g = weak_regular_double(rng, 6, 5, 3, rho=0.8, nullspace_mix=0.3)
        b = rng.uniform(0.5, 1.5, 6)

        def pipeline():
            d = make_pds(g.a, g.p, g.r, g.s)
            check_convergence(d)
            solve_double(d, b)
            classify_single(d)
            solve_single(d, b)

        # one SVD, P's, during make_pds: A^+ is derived from it
        assert count_svds(pipeline) == 1

    def test_pipeline_forms_no_dense_projector_residual(self, monkeypatch, capsys):
        # make_pds decides on the rank-r bounds; the dense residuals are formed
        # once, on the first report that asks for them, and the CLI's
        # classify single report carries them
        calls = []
        real = splitting._projector_residuals

        def counting(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(splitting, "_projector_residuals", counting)
        rng = default_rng(27)
        g = weak_regular_double(rng, 30, 24, 12, rho=0.8, nullspace_mix=0.3)
        d = make_pds(g.a, g.p, g.r, g.s)
        check_convergence(d)
        solve_double(d, rng.uniform(0.5, 1.5, 30))
        assert not calls
        first = check_projector_identities(d)
        assert check_projector_identities(d) == first and first.passed
        assert len(calls) == 1

        files = [str(DATA / f"ex1_{k}.mat") for k in ("a", "p2")]
        assert main(["classify", "single", *files, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        rep = check_projector_identities(make_proper_splitting(*map(read_matrix, files)))
        keys = ("range_residual", "rowspace_residual", "identities_pass")
        got = [doc[f"projector_{k}"] for k in keys]
        assert got == [rep.range_residual, rep.rowspace_residual, True]

        # a rejected splitting forms them once, for its NotProperError
        calls.clear()
        with pytest.raises(NotProperError) as exc:
            make_proper_splitting(np.eye(2), np.diag([1.0, 0.0]))
        assert (exc.value.range_residual, exc.value.nullspace_residual) == (1.0, 1.0)
        assert len(calls) == 1

    def test_block_is_the_difference_of_the_blocks(self):
        rng = default_rng(28)
        for d in (
            weak_regular_double(rng, 8, 6, 3, rho=0.8, nullspace_mix=0.3),
            weak_regular_double(rng, 6, 8, 6, rho=1.05),
            *comparison_pair(rng, TheoremId.WEAK_VS_WEAK, 6, 5, 3),
        ):
            assert np.array_equal(d.block(), np.subtract(*d.blocks()))
            want = d.pinvs()[1] @ (d.r - d.s)
            assert np.max(np.abs(d.block() - want)) <= 1e-14 * np.max(np.abs(want))

    def test_other_cutoff_recomputes_under_that_cutoff(self):
        # P's second singular value is 1e-5 of its first: the default cutoff
        # keeps it, a relative cutoff of 1e-3 drops it
        p = np.array([[1.0, 0.0], [0.0, 1e-5], [0.0, 0.0]])
        r = np.array([[0.5, 0.0], [0.0, 0.9e-5], [0.0, 0.0]])
        s = np.zeros((3, 2))
        d = make_pds(p - r + s, p, r, s)
        default = check_convergence(d)

        cfg = ToleranceConfig(rank_rel_cutoff=1e-3)
        p_pinv = pinv(d.p, cfg)
        w = companion_from_blocks(p_pinv @ d.r, p_pinv @ d.s)
        expected = ConvergenceReport(
            splitting_class=DoubleSplittingClass.REGULAR,
            rho_w=spectral_radius(w, cfg),
            rho_induced=spectral_radius(p_pinv @ (d.r - d.s), cfg),
            semi_monotone=is_nonneg(pinv(d.a, cfg), cfg),
            biconditional_agrees=True,
            guaranteed_convergent=True,
            converges=True,
        )
        assert check_convergence(d, cfg) == expected
        assert np.array_equal(iteration_matrix(d, cfg), w)
        assert expected.rho_w != default.rho_w
        assert check_convergence(d) == default  # the construction-time pair is kept

    def test_blocks_are_read_only(self):
        d = weak_regular_double(default_rng(17), 6, 5, 3, rho=0.8)
        for m in (*d.blocks(), d.block()):
            assert not m.flags.writeable
            with pytest.raises(ValueError):
                m[0, 0] = 1.0

    def test_repeated_calls_return_the_same_objects(self):
        rng = default_rng(18)
        d = weak_regular_double(rng, 6, 5, 3, rho=0.8, nullspace_mix=0.3)
        pr, ps = d.blocks()
        uv = d.block()
        check_convergence(d)
        solve_double(d, rng.uniform(0.5, 1.5, 6))
        solve_single(d, rng.uniform(0.5, 1.5, 6))
        again = d.blocks()
        assert again[0] is pr and again[1] is ps
        assert d.block() is uv

    def test_companion_top_blocks_are_the_owned_blocks(self):
        d = weak_regular_double(default_rng(19), 6, 5, 3, rho=0.8, nullspace_mix=0.3)
        p_pinv = d.pinvs()[1]
        w = iteration_matrix(d)
        n = d.a.shape[1]
        # bit-for-bit: tobytes also tells -0.0 from 0.0
        assert w[:n, :n].tobytes() == (p_pinv @ d.r).tobytes() == d.blocks()[0].tobytes()
        assert w[:n, n:].tobytes() == (-(p_pinv @ d.s)).tobytes() == (-d.blocks()[1]).tobytes()

    def test_other_cutoff_forms_its_own_blocks(self):
        # as above: the relative cutoff 1e-3 drops P's second singular value
        p = np.array([[1.0, 0.0], [0.0, 1e-5], [0.0, 0.0]])
        r = np.array([[0.5, 0.0], [0.0, 0.9e-5], [0.0, 0.0]])
        s = np.array([[-0.1, 0.0], [0.0, 0.0], [0.0, 0.0]])
        d = make_pds(p - r + s, p, r, s)
        default_blocks = d.blocks()
        cfg = ToleranceConfig(rank_rel_cutoff=1e-3)
        p_pinv = pinv(d.p, cfg)
        pr, ps = d.blocks(cfg)
        assert pr is not default_blocks[0] and ps is not default_blocks[1]
        assert np.array_equal(pr, p_pinv @ d.r) and np.array_equal(ps, p_pinv @ d.s)
        assert not np.array_equal(pr, default_blocks[0])
        assert np.array_equal(d.block(cfg), p_pinv @ (d.r - d.s))
        assert d.blocks()[0] is default_blocks[0]  # the default-cutoff blocks are kept

    def test_rowspace_is_read_only_and_shared_with_the_induced_splitting(self):
        d = weak_regular_double(default_rng(20), 6, 5, 3, rho=0.8, nullspace_mix=0.3)
        q = d.rowspace()
        assert q is d.rowspace()
        assert q.shape == (5, 3)
        assert np.allclose(q.T @ q, np.eye(3), atol=1e-14)
        assert np.allclose(q @ (q.T @ d.pinvs()[1]), d.pinvs()[1], atol=1e-14)
        assert not q.flags.writeable
        with pytest.raises(ValueError):
            q[0, 0] = 1.0

    def test_radii_factor_nothing_after_construction(self, count_svds):
        rng = default_rng(21)
        g = weak_regular_double(rng, 6, 5, 3, rho=0.8, nullspace_mix=0.3)
        d = make_pds(g.a, g.p, g.r, g.s)
        assert count_svds(lambda: check_convergence(d)) == 0
        assert count_svds(lambda: check_semimonotone_equivalence(d)) == 0
        pair = comparison_pair(rng, TheoremId.WEAK_VS_WEAK, 6, 5, 3)
        d1, d2 = (make_pds(x.a, x.p, x.r, x.s) for x in pair)
        assert count_svds(lambda: compare(TheoremId.WEAK_VS_WEAK, d1, d2)) == 0

    def test_other_cutoff_gets_its_own_basis(self):
        # as above: the relative cutoff 1e-3 drops P's second singular value
        p = np.array([[1.0, 0.0], [0.0, 1e-5], [0.0, 0.0]])
        r = np.array([[0.5, 0.0], [0.0, 0.9e-5], [0.0, 0.0]])
        s = np.zeros((3, 2))
        d = make_pds(p - r + s, p, r, s)
        default = d.rowspace()
        coarse = d.rowspace(ToleranceConfig(rank_rel_cutoff=1e-3))
        assert default.shape == (2, 2) and coarse.shape == (2, 1)
        assert np.array_equal(np.abs(coarse), [[1.0], [0.0]])
        assert not coarse.flags.writeable
        assert d.rowspace() is default and default.shape == (2, 2)


def _radius_cases():
    """Generated double splittings with rank(P) < n: weak regular, regular,
    divergent (rho 1.05) and weak regular with a null-space mix."""
    rng = default_rng(30)
    cases = []
    for m, n, rank in ((6, 5, 3), (5, 6, 2), (12, 10, 4), (30, 24, 12)):
        cases.append(weak_regular_double(rng, m, n, rank, rho=0.9))
        cases.append(regular_double(rng, m, n, rank, rho=0.7))
        cases.append(weak_regular_double(rng, m, n, rank, rho=1.05))
        cases.append(weak_regular_double(rng, m, n, rank, rho=0.95, nullspace_mix=0.3))
    return cases


def _close(restricted, full):
    return abs(restricted - full) <= 1e-12 * max(1.0, full)


class TestRestrictedRadius:
    """Every radius is taken on range(P^+): the differential check against the
    full 2n x 2n companion and the full n x n induced block."""

    def test_radii_match_the_full_matrices(self):
        for d in _radius_cases():
            assert d.rowspace().shape[1] < d.a.shape[1]
            rep = check_convergence(d)
            assert _close(rep.rho_w, spectral_radius(iteration_matrix(d)))
            assert _close(rep.rho_induced, spectral_radius(d.block()))
            radius = check_semimonotone_equivalence(d).iteration_radius
            assert _close(radius, spectral_radius(d.block()))

    def test_single_splitting_radius_matches_the_full_block(self):
        rng = default_rng(31)
        for m, n, rank in ((6, 5, 3), (5, 6, 2), (20, 16, 8)):
            for rho in (0.6, 1.3):
                s = weak_regular_single(rng, m, n, rank, rho=rho)
                radius = check_semimonotone_equivalence(s).iteration_radius
                assert _close(radius, spectral_radius(s.block()))
                assert abs(radius - rho) <= 1e-10

    def test_spectrum_of_w_is_the_restricted_spectrum_plus_zeros(self):
        rng = default_rng(32)
        for d in (
            weak_regular_double(rng, 6, 5, 3, rho=0.8, nullspace_mix=0.3),
            regular_double(rng, 5, 6, 2, rho=0.7),
            weak_regular_double(rng, 8, 7, 2, rho=1.05),
        ):
            q = d.rowspace()
            n, r = q.shape
            pr, ps = d.blocks()
            w_r = companion_from_blocks(q.T @ pr @ q, q.T @ ps @ q)
            padded = np.concatenate([np.linalg.eigvals(w_r), np.zeros(2 * (n - r))])
            full = list(np.linalg.eigvals(iteration_matrix(d)))
            for z in sorted(padded, key=lambda x: (-abs(x), x.real, x.imag)):
                j = int(np.argmin([abs(z - x) for x in full]))
                # W is defective at 0 (2 x 2 Jordan blocks on the quotient), so
                # its computed zero eigenvalues scatter by about sqrt(eps)
                assert abs(z - full.pop(j)) <= (1e-10 if abs(z) > 1e-3 else 1e-6)
            assert not full

    def test_full_rank_radii_are_bit_identical(self):
        rng = default_rng(33)
        for rho in (0.5, 0.95, 1.05):
            d = weak_regular_double(rng, 7, 5, 5, rho=rho, nullspace_mix=0.3)
            assert d.rowspace().shape == (5, 5)
            rep = check_convergence(d)
            assert rep.rho_w == spectral_radius(iteration_matrix(d))
            assert rep.rho_induced == spectral_radius(d.block())
            assert check_semimonotone_equivalence(d).iteration_radius == spectral_radius(d.block())

    def test_rank_zero_splitting_has_radius_zero(self):
        zero = np.zeros((3, 2))
        r = np.array([[1.0, 2.0], [0.5, 0.0], [0.0, 3.0]])
        d = make_pds(zero, zero, r, r)
        assert d.rowspace().shape == (2, 0)
        rep = check_convergence(d)
        assert rep.rho_w == rep.rho_induced == 0.0
        assert rep.converges
        assert check_semimonotone_equivalence(d).iteration_radius == 0.0
