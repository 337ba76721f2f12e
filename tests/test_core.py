"""Tests for the matrix primitives: pinv, spectra, entrywise predicates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from numpy.random import default_rng

from propersplit import (
    DEFAULT_TOLERANCES,
    DecompositionFailure,
    NonFiniteError,
    NotSquareError,
    ShapeMismatchError,
    ToleranceConfig,
    as_matrix,
    as_vector,
    companion_from_blocks,
    eigenvalues,
    is_nonneg,
    max_abs_diff,
    nonneg_residual,
    penrose_residuals,
    pinv,
    spectral_radius,
)
from propersplit import core

from builders import rank_deficient_matrix


class TestValidation:
    def test_as_matrix_rejects_nan(self):
        with pytest.raises(NonFiniteError):
            as_matrix([[1.0, np.nan]])

    def test_as_matrix_rejects_inf(self):
        with pytest.raises(NonFiniteError):
            as_matrix([[np.inf, 1.0]])

    def test_as_matrix_rejects_1d(self):
        with pytest.raises(ShapeMismatchError):
            as_matrix([1.0, 2.0])

    def test_as_vector_accepts_column(self):
        v = as_vector([[1.0], [2.0]])
        assert v.shape == (2,)

    def test_as_vector_length_check(self):
        with pytest.raises(ShapeMismatchError):
            as_vector([1.0, 2.0], length=3)

    def test_tolerance_config_rejects_bad_cutoff(self):
        with pytest.raises(ValueError):
            ToleranceConfig(rank_rel_cutoff=1.5)

    def test_tolerance_config_rejects_negative_tol(self):
        for bad in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                ToleranceConfig(solve_tol=bad)

    def test_tolerance_config_max_iter_must_be_integral(self):
        for bad in (2.5, 3.0, "3"):
            with pytest.raises(ValueError):
                ToleranceConfig(max_iter=bad)
        assert ToleranceConfig(max_iter=np.int64(3)).max_iter == 3


class TestPinv:
    def test_identity(self):
        assert np.allclose(pinv(np.eye(3)), np.eye(3), atol=1e-12)

    def test_first_example_p1(self, ex1):
        assert np.max(np.abs(pinv(ex1.p1) - ex1.p1_pinv)) < 1e-12

    def test_second_example_a(self, ex2):
        assert np.max(np.abs(pinv(ex2.a) - ex2.a_pinv)) < 1e-12

    def test_zero_matrix(self):
        x = pinv(np.zeros((3, 2)))
        assert x.shape == (2, 3)
        assert np.all(x == 0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteError):
            pinv(np.array([[1.0, np.nan]]))

    def test_invertible_agreement(self):
        rng = default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            a = rng.standard_normal((n, n)) + n * np.eye(n)
            assert np.max(np.abs(pinv(a) @ a - np.eye(n))) < 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_penrose_suite_random(self, seed):
        rng = default_rng(seed)
        for _ in range(40):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 9))
            r = int(rng.integers(0, min(m, n) + 1))
            a = rank_deficient_matrix(rng, m, n, r)
            x = pinv(a)
            scale = 1e-9 * (1.0 + np.linalg.norm(a))
            assert all(res <= scale for res in penrose_residuals(a, x))

    def test_involution(self):
        rng = default_rng(11)
        for _ in range(50):
            a = rank_deficient_matrix(rng, int(rng.integers(1, 8)), int(rng.integers(1, 8)), 2)
            assert np.max(np.abs(pinv(pinv(a)) - a)) < 1e-8 * (1.0 + np.linalg.norm(a))

    def test_rank_cutoff_drops_tiny_singular_values(self):
        # rank-1 matrix plus noise far below the relative cutoff
        a = np.outer([1.0, 2.0], [3.0, 4.0])
        noisy = a + 1e-14 * np.ones_like(a)
        assert core._kept_svd(noisy, DEFAULT_TOLERANCES)[1].size == 1
        assert core._kept_svd(noisy, ToleranceConfig(rank_rel_cutoff=1e-16))[1].size == 2


class TestEigenvalues:
    def test_nilpotent(self):
        spec = eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert spec.spectral_radius == 0.0
        assert all(abs(ev) == 0.0 for ev in spec.eigenvalues)

    def test_symmetric_2x2(self):
        # characteristic polynomial x^2 - 4x + 3 has roots 3 and 1
        spec = eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
        vals = sorted(ev.real for ev in spec.eigenvalues)
        assert abs(vals[0] - 1.0) < 1e-10 and abs(vals[1] - 3.0) < 1e-10
        assert abs(spec.spectral_radius - 3.0) < 1e-10

    def test_first_example_w1(self, ex1, ex1_splittings):
        from propersplit import iteration_matrix

        w1 = iteration_matrix(ex1_splittings[0])
        assert abs(spectral_radius(w1) - ex1.rho_w1) < 5e-4

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            eigenvalues(np.ones((2, 3)))

    def test_eigenvalue_count(self):
        rng = default_rng(3)
        for n in (1, 2, 5):
            spec = eigenvalues(rng.standard_normal((n, n)))
            assert len(spec.eigenvalues) == n

    def test_spectral_radius_matches_max_modulus(self):
        rng = default_rng(4)
        for _ in range(20):
            m = rng.standard_normal((5, 5))
            spec = eigenvalues(m)
            assert abs(spec.spectral_radius - max(abs(ev) for ev in spec.eigenvalues)) < 1e-12


def _lapack_fails(*args, **kwargs):
    raise np.linalg.LinAlgError("forced failure")


@pytest.mark.parametrize(
    "routine, func", [("svd", pinv), ("eig", eigenvalues), ("eigvals", spectral_radius)]
)
def test_lapack_failure_is_a_decomposition_failure(routine, func, monkeypatch):
    monkeypatch.setattr(np.linalg, routine, _lapack_fails)
    with pytest.raises(DecompositionFailure, match="did not converge: forced failure"):
        func(np.eye(3))


class TestPerronFrobenius:
    def test_dominant_vector_properties(self):
        rng = default_rng(21)
        for _ in range(40):
            n = int(rng.integers(1, 8))
            m = rng.uniform(0.0, 1.0, (n, n))
            spec = eigenvalues(m)
            v = spec.dominant_vector
            assert v is not None
            assert np.min(v) >= -DEFAULT_TOLERANCES.nonneg_slack
            assert np.linalg.norm(m @ v - spec.spectral_radius * v) <= 1e-10 * max(
                1.0, np.linalg.norm(v)
            )
            assert abs(np.max(v) - 1.0) < 1e-12  # unit max entry

    def test_rho_is_an_eigenvalue_for_nonneg(self):
        rng = default_rng(22)
        for _ in range(40):
            m = rng.uniform(0.0, 1.0, (6, 6))
            spec = eigenvalues(m)
            best = min(abs(ev - spec.spectral_radius) for ev in spec.eigenvalues)
            assert best <= 1e-8 * (1.0 + spec.spectral_radius)

    def test_no_dominant_vector_for_mixed_sign(self):
        spec = eigenvalues(np.array([[1.0, -2.0], [0.0, 1.0]]))
        assert spec.dominant_vector is None

    def test_permutation_matrix(self):
        # periodic matrix: the eigenvector scan answers, with the basis vector
        # of eigenvalue 1, so the power-iteration fallback never runs
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        spec = eigenvalues(m)
        assert spec.dominant_vector is not None
        assert np.min(spec.dominant_vector) >= 0.0

    def test_zero_matrix(self):
        spec = eigenvalues(np.zeros((3, 3)))
        assert spec.spectral_radius == 0.0
        assert spec.dominant_vector is not None

    def test_bound_lemma(self):
        # alpha x <= Mx for x >= 0 forces alpha <= rho; Mx <= beta x for x > 0
        # forces rho <= beta
        rng = default_rng(23)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            m = rng.uniform(0.0, 1.0, (n, n))
            rho = spectral_radius(m)
            x = rng.uniform(0.1, 1.0, n)
            mx = m @ x
            alpha = float(np.min(mx / x))
            beta = float(np.max(mx / x))
            assert alpha <= rho + 1e-10
            assert rho <= beta + 1e-10

    def test_neumann_series(self):
        # for B >= 0 with rho(B) < 1, (I-B)^{-1} = sum B^k is nonnegative
        rng = default_rng(24)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            b = rng.uniform(0.0, 1.0, (n, n))
            b *= rng.uniform(0.1, 0.95) / spectral_radius(b)
            inv = np.linalg.inv(np.eye(n) - b)
            partial = np.zeros((n, n))
            power = np.eye(n)
            for _ in range(2000):
                partial += power
                power = power @ b
                if np.max(np.abs(power)) < 1e-14:
                    break
            assert np.max(np.abs(partial - inv)) < 1e-9 * (1.0 + np.linalg.norm(inv))
            assert np.min(inv) >= -DEFAULT_TOLERANCES.nonneg_slack


class TestPredicates:
    def test_is_nonneg_basic(self):
        assert is_nonneg(np.array([[0.0, 1.0], [2.0, 3.0]]))

    def test_is_nonneg_bundled_block(self, ex1):
        assert not is_nonneg(ex1.p1s1)

    def test_is_nonneg_slack_semantics(self):
        cfg = ToleranceConfig(nonneg_slack=1e-12)
        assert is_nonneg(np.array([[-1e-14]]), cfg)
        assert not is_nonneg(np.array([[-1e-10]]), cfg)

    def test_geq_reflexive(self):
        m = np.array([[1.0, -2.0], [3.0, 4.0]])
        assert is_nonneg(m - m)

    def test_geq_second_example(self, ex2):
        assert is_nonneg(ex2.p1_pinv - ex2.p2_pinv)

    def test_geq_first_example_fails(self, ex1):
        assert not is_nonneg(ex1.p1_pinv - ex1.p2_pinv)



@pytest.mark.parametrize(
    "func, args, error",
    [
        (penrose_residuals, (np.ones((2, 3)), np.ones((2, 3))), ShapeMismatchError),
        (companion_from_blocks, (np.eye(2), np.eye(3)), ShapeMismatchError),
        (spectral_radius, (np.ones((2, 3)),), NotSquareError),
        (max_abs_diff, (np.ones((2, 2)), np.ones((2, 3))), ShapeMismatchError),
    ],
    ids=["penrose_residuals", "companion_from_blocks", "spectral_radius", "max_abs_diff"],
)
def test_shape_checks(func, args, error):
    with pytest.raises(error):
        func(*args)


class TestProjectors:
    def test_range_projector_identity(self):
        assert np.allclose(np.eye(4) @ pinv(np.eye(4)), np.eye(4), atol=1e-12)

    def test_range_projector_full_row_rank(self, ex2):
        assert np.max(np.abs(ex2.a @ pinv(ex2.a) - np.eye(2))) < 1e-12

    def test_nullspace_projector_value(self, ex2):
        expected = np.array([[1.0, 0.0, -1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 1.0]]) / 2.0
        assert np.max(np.abs(np.eye(3) - pinv(ex2.a) @ ex2.a - expected)) < 1e-12

    def test_projectors_idempotent_symmetric(self):
        rng = default_rng(31)
        for _ in range(25):
            a = rank_deficient_matrix(rng, 5, 4, int(rng.integers(0, 5)))
            for p in (a @ pinv(a), np.eye(4) - pinv(a) @ a):
                assert np.max(np.abs(p @ p - p)) < 1e-10
                assert np.max(np.abs(p.T - p)) < 1e-10


# entries cluster near zero so that many draws sit on either side of the slack
_entries = st.one_of(
    st.floats(-1e-9, 1e-9, allow_nan=False),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)
_finite_arrays = arrays(np.float64, array_shapes(min_dims=1, max_dims=2, max_side=6), elements=_entries)


class TestNonnegResidual:
    @settings(max_examples=300, deadline=None)
    @given(x=_finite_arrays, slack=st.sampled_from([0.0, 1e-12, 1e-10, 1e-3]))
    def test_residual_within_slack_iff_min_within_slack(self, x, slack):
        residual = nonneg_residual(x)
        assert residual >= 0.0
        assert (residual <= slack) == (np.min(x) >= -slack)
        assert is_nonneg(x, ToleranceConfig(nonneg_slack=slack)) == (residual <= slack)

    @settings(max_examples=100, deadline=None)
    @given(x=_finite_arrays, data=st.data(), bad=st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_rejects_nan_and_inf(self, x, data, bad):
        x = x.copy()
        x.flat[data.draw(st.integers(0, x.size - 1))] = bad
        with pytest.raises(NonFiniteError):
            nonneg_residual(x)
