"""Tests for the three comparison theorem checkers and square-corollary mode."""

import numpy as np
import pytest
from numpy.random import default_rng

from propersplit import (
    Branch,
    DifferentAError,
    NotInvertibleError,
    TheoremId,
    check_convergence,
    compare,
    companion_from_blocks,
    eigenvalues,
    iteration_matrix,
    make_pds,
    spectral_radius,
)
from propersplit.generators import comparison_pair, regular_double, weak_regular_double


def identity_pair(n=2):
    a = np.eye(n)
    d = make_pds(a, 2.0 * a, a, np.zeros((n, n)))
    return d, d


def verdict(report, label):
    return next(v for v in report.hypothesis_verdicts if v.label == label)


class TestRegularVsWeak:
    def test_identity_equality(self):
        rep = compare(TheoremId.REGULAR_VS_WEAK, *identity_pair())
        assert rep.conclusion_predicted and rep.conclusion_observed
        assert rep.branch_used is Branch.BOTH
        assert rep.rho1 == rep.rho2 == 0.5

    def test_first_example_converse_failure(self, ex1, ex1_splittings):
        rep = compare(TheoremId.REGULAR_VS_WEAK, *ex1_splittings)
        assert abs(rep.rho1 - ex1.rho_w1) < 5e-4
        assert abs(rep.rho2 - ex1.rho_w2) < 5e-4
        assert rep.conclusion_observed
        assert not rep.conclusion_predicted
        assert not verdict(rep, "P1^+ >= P2^+").passed
        assert not verdict(rep, "P1^+ R1 >= P2^+ R2").passed
        assert not verdict(rep, "P1^+ S1 >= P2^+ S2").passed
        assert verdict(rep, "A^+ >= 0").passed
        assert verdict(rep, "splitting 1 regular").passed
        assert rep.branch_used is Branch.NEITHER

    def test_generated_pairs(self, cfg):
        rng = default_rng(51)
        for _ in range(15):
            d1, d2 = comparison_pair(rng, TheoremId.REGULAR_VS_WEAK, 4, 5, 2, cfg)
            rep = compare(TheoremId.REGULAR_VS_WEAK, d1, d2, cfg)
            assert rep.conclusion_predicted
            assert rep.conclusion_observed, (rep.rho1, rep.rho2)


class TestWeakVsRegular:
    def test_identity_equality(self):
        rep = compare(TheoremId.WEAK_VS_REGULAR, *identity_pair())
        assert rep.conclusion_predicted and rep.conclusion_observed

    def test_second_example_all_hypotheses(self, ex2, ex2_splittings):
        rep = compare(TheoremId.WEAK_VS_REGULAR, *ex2_splittings)
        for label in (
            "e in range(A)",
            "A^+ >= 0",
            "splitting 1 weak regular",
            "splitting 2 regular",
            "P2^+ has no zero row",
            "P2 P2^+ >= 0",
            "P1^+ >= P2^+",
            "P1^+ R1 >= P2^+ R2",
        ):
            assert verdict(rep, label).passed, label
        assert rep.branch_used in (Branch.CONDITION_I, Branch.BOTH)
        assert rep.conclusion_predicted and rep.conclusion_observed
        assert abs(rep.rho1 - ex2.rho_w1) < 1e-9
        assert abs(rep.rho2 - ex2.rho_w2) < 1e-9

    def test_zero_row_violation_only(self, ex1_splittings, ex2_splittings):
        # d2's pseudoinverse has a zero row; every other hypothesis holds
        a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        d1 = make_pds(a, 1.5 * a, 0.5 * a, np.zeros_like(a))
        d2 = make_pds(a, 2.0 * a, a, np.zeros_like(a))
        rep = compare(TheoremId.WEAK_VS_REGULAR, d1, d2)
        assert not verdict(rep, "P2^+ has no zero row").passed
        # the residual is the smallest row maximum of P2^+: 0.0 on a zero row
        # (ex1's first P^+ has a zero third row), positive otherwise
        pairs = [(d1, d2), ex1_splittings[::-1], identity_pair(3), ex2_splittings]
        for pair, passed in zip(pairs, (False, False, True, True)):
            got = verdict(compare(TheoremId.WEAK_VS_REGULAR, *pair), "P2^+ has no zero row")
            p2_pinv = pair[1].pinvs()[1]
            assert got.residual == np.min(np.max(np.abs(p2_pinv), axis=1))
            assert got.passed is passed and (got.residual == 0.0) is not passed
        failed = [v.label for v in rep.hypothesis_verdicts if not v.passed]
        assert failed == ["P2^+ has no zero row", "P1^+ R1 >= P2^+ R2"]
        assert rep.branch_used is Branch.CONDITION_II  # S1 = S2 = 0
        assert not rep.conclusion_predicted
        assert rep.conclusion_observed  # rho ordering still holds: 1/3 <= 1/2

    def test_generated_pairs(self, cfg):
        rng = default_rng(52)
        for _ in range(15):
            d1, d2 = comparison_pair(rng, TheoremId.WEAK_VS_REGULAR, 5, 4, 2, cfg)
            rep = compare(TheoremId.WEAK_VS_REGULAR, d1, d2, cfg)
            assert rep.conclusion_predicted and rep.conclusion_observed


class TestWeakVsWeak:
    def test_identity_equality(self):
        rep = compare(TheoremId.WEAK_VS_WEAK, *identity_pair())
        assert rep.conclusion_predicted and rep.conclusion_observed

    def test_second_example(self, ex2_splittings):
        # both splittings pass the weak regular predicates; the ordering
        # P1^+ A >= P2^+ A holds because the pseudoinverses are proportional
        rep = compare(TheoremId.WEAK_VS_WEAK, *ex2_splittings)
        assert verdict(rep, "P1^+ A >= P2^+ A").passed
        assert rep.conclusion_predicted and rep.conclusion_observed

    def test_generated_pairs(self, cfg):
        rng = default_rng(53)
        for _ in range(15):
            d1, d2 = comparison_pair(rng, TheoremId.WEAK_VS_WEAK, 4, 5, 3, cfg)
            rep = compare(TheoremId.WEAK_VS_WEAK, d1, d2, cfg)
            assert rep.conclusion_predicted and rep.conclusion_observed


class TestSquareCorollary:
    def a(self):
        return np.array([[2.0, -1.0], [-1.0, 2.0]])  # inverse is nonnegative

    def test_nested_regular_pair(self):
        a = self.a()
        ones = np.ones((2, 2))
        d1 = make_pds(a, 3.0 * np.eye(2), ones, np.zeros((2, 2)))
        d2 = make_pds(a, 4.0 * np.eye(2), np.eye(2), -ones)
        rep = compare(TheoremId.REGULAR_VS_WEAK, d1, d2, square_corollary=True)
        assert rep.square_corollary
        assert verdict(rep, "R1 >= R2").passed
        assert any(n.startswith("branch (i) implied") for n in rep.notes)
        assert verdict(rep, "P1^+ R1 >= P2^+ R2").passed  # the implication is real
        assert rep.conclusion_predicted and rep.conclusion_observed
        assert abs(rep.rho1 - 2.0 / 3.0) < 1e-10

    def test_identity_pair(self):
        rep = compare(TheoremId.WEAK_VS_REGULAR, *identity_pair(), square_corollary=True)
        assert rep.conclusion_predicted and rep.conclusion_observed

    def test_no_classical_inverse_is_computed(self, cfg, monkeypatch):
        rng = default_rng(60)
        pairs = [(t, comparison_pair(rng, t, 6, 6, 6, cfg)) for t in TheoremId]

        def refuse(*args, **kwargs):
            raise AssertionError("square corollary mode computed an inverse")

        monkeypatch.setattr(np.linalg, "inv", refuse)
        for theorem, (d1, d2) in pairs:
            assert compare(theorem, d1, d2, cfg, square_corollary=True).square_corollary

    def test_no_factorization_beyond_the_splittings_own(self, cfg, count_svds):
        # A's rank is P1's, so square mode runs no SVD of A
        rng = default_rng(61)
        for theorem in TheoremId:
            d1, d2 = comparison_pair(rng, theorem, 6, 6, 6, cfg)
            for d in (d1, d2):
                d.pinvs()  # the splittings' own factors, formed before counting
            assert count_svds(lambda: compare(theorem, d1, d2, cfg, square_corollary=True)) == 0

    def test_singular_rejected(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        d = make_pds(a, a, np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(NotInvertibleError):
            compare(TheoremId.REGULAR_VS_WEAK, d, d, square_corollary=True)

    def test_rectangular_rejected(self, ex1_splittings):
        with pytest.raises(NotInvertibleError):
            compare(TheoremId.REGULAR_VS_WEAK, *ex1_splittings, square_corollary=True)


class TestReportMechanics:
    def test_different_a_rejected(self, ex1_splittings, ex2_splittings):
        with pytest.raises(DifferentAError):
            compare(TheoremId.REGULAR_VS_WEAK, ex1_splittings[0], ex2_splittings[0])

    def test_different_a_same_shape(self, ex1, ex1_splittings):
        other = make_pds(2.0 * ex1.a, 2.0 * ex1.p1, 2.0 * ex1.r1, 2.0 * ex1.s1)
        with pytest.raises(DifferentAError):
            compare(TheoremId.REGULAR_VS_WEAK, ex1_splittings[0], other)

    def test_report_symmetry(self, ex1_splittings):
        d1, d2 = ex1_splittings
        fwd = compare(TheoremId.REGULAR_VS_WEAK, d1, d2)
        rev = compare(TheoremId.REGULAR_VS_WEAK, d2, d1)
        assert fwd.rho1 == rev.rho2
        assert fwd.rho2 == rev.rho1

    def test_perron_step_on_regular_splittings(self, cfg):
        # the proof's key step: a nonnegative companion matrix has a
        # nonnegative eigenvector achieving the spectral radius
        rng = default_rng(54)
        for _ in range(10):
            d = regular_double(rng, 4, 5, 2, rho=float(rng.uniform(0.3, 0.9)))
            w = iteration_matrix(d)
            spec = eigenvalues(w, cfg)
            x = spec.dominant_vector
            assert x is not None
            assert np.linalg.norm(w @ x - spec.spectral_radius * x) <= 1e-10 * max(
                1.0, np.linalg.norm(x)
            )

    def test_soundness_sample(self, cfg):
        rng = default_rng(55)
        for theorem in TheoremId:
            for _ in range(8):
                d1, d2 = comparison_pair(rng, theorem, 4, 4, 2, cfg)
                rep = compare(theorem, d1, d2, cfg)
                assert rep.conclusion_predicted
                assert rep.rho1 <= rep.rho2 + 1e-8
                assert rep.rho2 < 1.0

    def test_no_factorization_after_construction(self, count_svds):
        rng = default_rng(56)
        for theorem in TheoremId:
            d1, d2 = comparison_pair(rng, theorem, 4, 5, 2)
            assert count_svds(lambda: compare(theorem, d1, d2)) == 0


class TestRestrictedRadii:
    """compare takes rho1, rho2 on range(P_i^+); the full 2n x 2n companions
    are the independent reference."""

    def test_rank_deficient_pairs_match_the_full_companions(self, cfg):
        rng = default_rng(57)
        for theorem in TheoremId:
            for m, n, rank in ((4, 5, 2), (6, 5, 3), (14, 12, 5)):
                d1, d2 = comparison_pair(rng, theorem, m, n, rank, cfg)
                rep = compare(theorem, d1, d2, cfg)
                for rho, d in ((rep.rho1, d1), (rep.rho2, d2)):
                    assert d.rowspace().shape[1] < n
                    full = spectral_radius(iteration_matrix(d), cfg)
                    assert abs(rho - full) <= 1e-12 * max(1.0, full)

    def test_full_rank_pairs_are_bit_identical(self, cfg):
        rng = default_rng(58)
        for theorem in TheoremId:
            d1, d2 = comparison_pair(rng, theorem, 6, 4, 4, cfg)
            rep = compare(theorem, d1, d2, cfg)
            assert rep.rho1 == spectral_radius(iteration_matrix(d1), cfg)
            assert rep.rho2 == spectral_radius(iteration_matrix(d2), cfg)

    def test_square_corollary_radii_equal_plain_mode(self, cfg):
        # square mode reads the splittings' own factors, so its radii are
        # plain mode's; the companions of the LU inverses' blocks stay the
        # differential reference
        rng = default_rng(59)
        for n in (4, 40):
            for theorem in TheoremId:
                d1, d2 = comparison_pair(rng, theorem, n, n, n, cfg)
                square = compare(theorem, d1, d2, cfg, square_corollary=True)
                plain = compare(theorem, d1, d2, cfg)
                assert (square.rho1, square.rho2) == (plain.rho1, plain.rho2)
                for rho, d in ((square.rho1, d1), (square.rho2, d2)):
                    p_inv = np.linalg.inv(d.p)
                    lu = spectral_radius(companion_from_blocks(p_inv @ d.r, p_inv @ d.s), cfg)
                    assert abs(rho - lu) <= 1e-12 * lu


def _permuted(rng, *ds):
    """Each splitting of ``ds`` remade with one row and one column permutation,
    drawn once, applied to A, P, R and S alike."""
    m, n = ds[0].a.shape
    rows, cols = rng.permutation(m), rng.permutation(n)
    return [make_pds(*(x[rows][:, cols] for x in (d.a, d.p, d.r, d.s))) for d in ds]


def _close_radii(x, y):
    return abs(x - y) <= 1e-12 * max(abs(x), abs(y))


def _same_convergence(d, e):
    got, want = check_convergence(e), check_convergence(d)
    assert got.splitting_class is want.splitting_class
    for name in ("semi_monotone", "biconditional_agrees", "guaranteed_convergent", "converges"):
        assert getattr(got, name) == getattr(want, name), name
    assert _close_radii(got.rho_w, want.rho_w) and _close_radii(got.rho_induced, want.rho_induced)


def test_verdicts_do_not_depend_on_row_or_column_order():
    # ROADMAP item 12, permutation half: permuting the rows and the columns of
    # all four matrices alike permutes every factor, so no verdict may move
    rng = default_rng(60)
    shapes = ((6, 5, 3), (8, 6, 3), (12, 10, 5))
    for theorem in TheoremId:
        for m, n, rank in shapes:
            for _ in range(5):
                pair = comparison_pair(rng, theorem, m, n, rank)
                moved = _permuted(rng, *pair)
                got, want = compare(theorem, *moved), compare(theorem, *pair)
                assert [(v.label, v.passed) for v in got.hypothesis_verdicts] == [
                    (v.label, v.passed) for v in want.hypothesis_verdicts
                ]
                assert got.branch_used is want.branch_used
                assert got.conclusion_predicted == want.conclusion_predicted
                assert got.conclusion_observed == want.conclusion_observed
                assert _close_radii(got.rho1, want.rho1) and _close_radii(got.rho2, want.rho2)
                for d, e in zip(pair, moved):
                    _same_convergence(d, e)
    for m, n, rank in shapes:
        for rho in (0.5, 0.99, 1.05) * 3:
            for d in (
                weak_regular_double(rng, m, n, rank, rho=rho, nullspace_mix=0.3),
                regular_double(rng, m, n, rank, rho=rho),
            ):
                _same_convergence(d, *_permuted(rng, d))
