"""Tests for single proper splittings: construction, classes, theorem checks."""

import numpy as np
import pytest
from numpy.random import default_rng

from propersplit import (
    HypothesisUnmetError,
    NotProperError,
    ShapeMismatchError,
    SplittingClass,
    check_projector_identities,
    check_semimonotone_equivalence,
    classify_single,
    is_nonneg,
    make_proper_splitting,
    pinv,
)
from propersplit.generators import weak_regular_single

from builders import perturbed_proper_splitting, weak_regular_single_square


class TestMakeProperSplitting:
    def test_identity_case(self):
        s = make_proper_splitting(np.eye(3), 2.0 * np.eye(3))
        assert np.array_equal(s.v, np.eye(3))

    def test_second_example_p1(self, ex2):
        s = make_proper_splitting(ex2.a, ex2.p1)
        assert np.array_equal(s.v, ex2.p1 - ex2.a)

    def test_rank_mismatch_fails(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(NotProperError) as exc:
            make_proper_splitting(a, np.eye(2))
        # both subspace conditions fail for a rank jump
        assert exc.value.range_residual > 1e-10
        assert exc.value.nullspace_residual > 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            make_proper_splitting(np.eye(2), np.eye(3))

    def test_rotated_range_fails(self):
        # same rank, different column space
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        u = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(NotProperError):
            make_proper_splitting(a, u)


class TestClassifySingle:
    def test_trivial_regular(self):
        s = make_proper_splitting(np.eye(2), 2.0 * np.eye(2))
        assert classify_single(s) is SplittingClass.PROPER_REGULAR

    def test_first_example_split1_induced(self, ex1):
        s = make_proper_splitting(ex1.a, ex1.p1)
        # V = R1 - S1 = [[2,1,0],[1,0,0]] >= 0 and P1^+ >= 0
        assert np.array_equal(s.v, ex1.r1 - ex1.s1)
        assert classify_single(s) is SplittingClass.PROPER_REGULAR

    def test_first_example_split2_induced_actual_tag(self, ex1):
        # V = R2 - S2 = [[0,2,0],[1,1,0]] is entrywise nonnegative, so the
        # strongest tag is regular even though weak regular is all the
        # comparison hypotheses need
        s = make_proper_splitting(ex1.a, ex1.p2)
        assert is_nonneg(s.v)
        assert classify_single(s) is SplittingClass.PROPER_REGULAR

    def test_weak_but_not_regular(self):
        # U^{-1} = [[1,1],[0,1]] >= 0 but V has a negative entry while
        # U^{-1} V = H stays nonnegative
        g = np.array([[1.0, 1.0], [0.0, 1.0]])
        u = np.linalg.inv(g)
        h = np.array([[0.5, 0.0], [0.4, 0.1]])
        s = make_proper_splitting(u - u @ h, u)
        assert not is_nonneg(s.v)
        assert classify_single(s) is SplittingClass.PROPER_WEAK_REGULAR

    def test_weak_but_not_regular_generated(self):
        rng = default_rng(2)
        seen_weak = False
        for _ in range(10):
            s = weak_regular_single_square(rng, 4, rho=0.6)
            tag = classify_single(s)
            assert tag is not SplittingClass.PROPER_ONLY
            seen_weak = seen_weak or tag is SplittingClass.PROPER_WEAK_REGULAR
        assert seen_weak

    def test_proper_only(self):
        # U^+ has a negative entry, so neither class applies
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        s = make_proper_splitting(a, a + np.eye(2))
        assert classify_single(s) is SplittingClass.PROPER_ONLY

    def test_regular_implies_weak_predicates(self):
        rng = default_rng(3)
        for _ in range(20):
            s = perturbed_proper_splitting(rng, rng.standard_normal((4, 3)), scale=0.4)
            if classify_single(s) is SplittingClass.PROPER_REGULAR:
                u_pinv = pinv(s.u)
                assert is_nonneg(u_pinv)
                assert is_nonneg(u_pinv @ s.v)


class TestProjectorIdentities:
    def test_trivial(self):
        rep = check_projector_identities(make_proper_splitting(np.eye(2), 2.0 * np.eye(2)))
        assert rep.passed and rep.range_residual == 0.0

    def test_second_example(self, ex2):
        rep = check_projector_identities(make_proper_splitting(ex2.a, ex2.p1))
        assert rep.passed

    def test_first_example(self, ex1):
        rep = check_projector_identities(make_proper_splitting(ex1.a, ex1.p2))
        assert rep.passed

    def test_holds_for_every_validated_splitting(self):
        rng = default_rng(9)
        for _ in range(30):
            m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            rank = int(rng.integers(1, min(m, n) + 1))
            a = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
            s = perturbed_proper_splitting(rng, a, scale=0.6)
            assert check_projector_identities(s).passed


class TestSemimonotoneEquivalence:
    def test_trivial_all_true(self):
        rep = check_semimonotone_equivalence(make_proper_splitting(np.eye(2), 2.0 * np.eye(2)))
        assert rep.agree
        assert rep.a_pinv_nonneg and rep.a_pinv_v_nonneg and rep.radius_below_one
        assert abs(rep.iteration_radius - 0.5) < 1e-12

    def test_second_example_all_true(self, ex2):
        s = make_proper_splitting(ex2.a, ex2.p1)
        rep = check_semimonotone_equivalence(s)
        assert rep.agree and rep.a_pinv_nonneg

    def test_all_false_together(self):
        # U = I, V = H >= 0 with rho(H) > 1: weak regular with a divergent
        # radius, so a non-semi-monotone A = I - H
        h = np.array([[0.0, 2.0], [2.0, 0.0]])
        s = make_proper_splitting(np.eye(2) - h, np.eye(2))
        rep = check_semimonotone_equivalence(s)
        assert rep.agree
        assert not rep.a_pinv_nonneg
        assert not rep.a_pinv_v_nonneg
        assert not rep.radius_below_one

    def test_hypothesis_unmet(self):
        # U^+ is not nonnegative here, so the equivalence is not claimed
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        s = make_proper_splitting(a, a + np.eye(2))
        with pytest.raises(HypothesisUnmetError):
            check_semimonotone_equivalence(s)

    def test_agreement_over_generated_instances(self):
        rng = default_rng(17)
        for i in range(30):
            rho = 0.5 if i % 2 == 0 else 1.4
            s = weak_regular_single(rng, 4, 5, 2, rho=rho)
            rep = check_semimonotone_equivalence(s)
            assert rep.agree
            assert rep.radius_below_one == (rho < 1.0)
