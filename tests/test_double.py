"""Tests for proper double splittings and the companion iteration matrix."""

import numpy as np
import pytest
from numpy.random import default_rng

from propersplit import (
    ConvergenceReport,
    DecompositionMismatchError,
    DoubleSplittingClass,
    ToleranceConfig,
    check_convergence,
    classify_double,
    classify_single,
    companion_from_blocks,
    induced_single,
    is_nonneg,
    iteration_matrix,
    make_pds,
    pinv,
    solve_double,
    solve_single,
    spectral_radius,
)
from propersplit.generators import nonneg_block_pair, weak_regular_double


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
        s = induced_single(identity_pds())
        assert np.array_equal(s.v, np.zeros((2, 2)))

    def test_first_example(self, ex1, ex1_splittings):
        s = induced_single(ex1_splittings[0])
        assert np.array_equal(s.v, np.array([[2.0, 1.0, 0.0], [1.0, 0.0, 0.0]]))

    def test_second_example(self, ex2, ex2_splittings):
        s = induced_single(ex2_splittings[0])
        assert np.array_equal(s.v, np.array([[2.0, 0.0, 2.0], [0.0, 2.0, 0.0]]))


class TestCheckConvergence:
    def test_trivial(self):
        rep = check_convergence(identity_pds())
        assert rep.rho_w == 0.0 and rep.rho_induced == 0.0
        assert rep.converges and rep.biconditional_agrees

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
            s = induced_single(d)
            classify_single(s)
            solve_single(s, b)

        # one SVD for A^+, one for P^+, both during make_pds
        assert count_svds(pipeline) == 2

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
