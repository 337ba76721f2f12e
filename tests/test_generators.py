"""Sanity checks for the randomized instance generators themselves."""

from types import SimpleNamespace

import numpy as np
import pytest
from numpy.random import default_rng

from propersplit import (
    DEFAULT_TOLERANCES,
    DoubleSplittingClass,
    TheoremId,
    classify_double,
    is_nonneg,
    penrose_residuals,
    pinv,
    spectral_radius,
)
from propersplit import generators
from propersplit.generators import (
    nonneg_block_pair,
    random_frame,
    regular_double,
    semimonotone_matrix,
    weak_regular_double,
    weak_regular_single,
    weak_regular_single_square,
)

# the four builders that take their iteration radius rho from _radius_scale
RADIUS_BUILDERS = {
    "weak_regular_double": lambda rng, rho: weak_regular_double(rng, 6, 5, 3, rho=rho),
    "regular_double": lambda rng, rho: regular_double(rng, 6, 5, 3, rho=rho),
    "weak_regular_single": lambda rng, rho: weak_regular_single(rng, 6, 5, 3, rho=rho),
    "weak_regular_single_square": lambda rng, rho: weak_regular_single_square(rng, 5, rho=rho),
}


def test_frame_structure():
    rng = default_rng(61)
    f = random_frame(rng, 6, 5, 3)
    assert np.allclose(f.left.T @ f.left, np.eye(3), atol=1e-12)
    assert np.allclose(f.right.T @ f.right, np.eye(3), atol=1e-12)
    assert np.min(f.left) >= 0.0 and np.min(f.right) >= 0.0
    assert is_nonneg(f.col_projector()) and is_nonneg(f.row_projector())


@pytest.mark.parametrize("rank", [0, 5])
def test_random_frame_refuses_a_rank_outside_one_to_min_m_n(rank):
    with pytest.raises(ValueError, match=r"rank must lie in \[1, min\(m, n\)\]"):
        random_frame(default_rng(0), 6, 4, rank)


def test_frame_splitting_matrix_exact_pinv():
    rng = default_rng(62)
    f = random_frame(rng, 5, 6, 2)
    g = rng.uniform(0.5, 2.0, 2)
    p = f.splitting_matrix(g)
    p_pinv = f.splitting_pinv(g)
    assert max(penrose_residuals(p, p_pinv)) < 1e-12
    assert np.max(np.abs(pinv(p) - p_pinv)) < 1e-12


def test_indicator_frame_contains_ones():
    rng = default_rng(63)
    f = random_frame(rng, 6, 4, 3, indicator_left=True)
    q = f.col_projector()
    e = np.ones(6)
    assert np.linalg.norm(q @ e - e) < 1e-12


def test_weak_regular_double_radius_control():
    rng = default_rng(64)
    for rho in (0.3, 0.85, 1.2):
        d = weak_regular_double(rng, 5, 6, 3, rho=rho)
        assert abs(spectral_radius(pinv(d.p) @ (d.r - d.s)) - rho) < 1e-8


def test_weak_regular_double_semimonotone_iff_contractive():
    rng = default_rng(65)
    for rho, expect in ((0.5, True), (1.3, False)):
        d = weak_regular_double(rng, 4, 5, 2, rho=rho)
        assert is_nonneg(pinv(d.a)) == expect


def test_regular_double_class():
    rng = default_rng(66)
    for _ in range(10):
        d = regular_double(rng, 4, 6, 3, rho=0.7)
        assert classify_double(d) is DoubleSplittingClass.REGULAR


def test_weak_regular_single_class():
    rng = default_rng(67)
    s = weak_regular_single(rng, 5, 5, 3, rho=0.4)
    u_pinv = pinv(s.u)
    assert is_nonneg(u_pinv)
    assert is_nonneg(u_pinv @ s.v)


def test_semimonotone_matrix():
    rng = default_rng(68)
    for _ in range(10):
        a = semimonotone_matrix(rng, 5, 4, 2)
        assert is_nonneg(pinv(a))


def test_nonneg_block_pair_radius():
    rng = default_rng(69)
    b, c = nonneg_block_pair(rng, 4, rho=0.9)
    assert is_nonneg(b) and is_nonneg(c)
    assert abs(spectral_radius(b + c) - 0.9) < 1e-10


@pytest.mark.parametrize("rho", [-0.5, -1e-300, float("nan")])
def test_nonneg_block_pair_refuses_a_negative_or_nan_rho(rho):
    with pytest.raises(ValueError, match="rho must be >= 0"):
        nonneg_block_pair(default_rng(0), 4, rho)


def test_nonneg_block_pair_takes_rho_one():
    b, c = nonneg_block_pair(default_rng(0), 4, 1.0)
    assert is_nonneg(b) and is_nonneg(c)
    assert abs(spectral_radius(b + c) - 1.0) < 1e-10


@pytest.fixture
def steering(monkeypatch):
    """Record each ``_steered_splits`` call's ``(P1^+, P2^+, V1, V2)``, and
    check each ``_capped_ratio``: its numerator positive exactly on its mask,
    the mask non-empty, the ratio positive."""
    calls = []
    steer, ratio = generators._steered_splits, generators._capped_ratio

    def recording_steer(rng, p_pinvs, v1, v2):
        calls.append((*p_pinvs, v1, v2))
        return steer(rng, p_pinvs, v1, v2)

    def checked_ratio(num, den):
        mask = den > 1e-15
        assert mask.any() and np.array_equal(num > 0.0, mask)
        out = ratio(num, den)
        assert out > 0.0
        return out

    monkeypatch.setattr(generators, "_steered_splits", recording_steer)
    monkeypatch.setattr(generators, "_capped_ratio", checked_ratio)
    return calls


@pytest.mark.parametrize("m, n, rank", [(4, 5, 2), (6, 5, 3), (12, 10, 5)])
def test_pair_builders_need_no_rejection(steering, m, n, rank):
    """The frame pairs meet their steering and radius bounds by construction:
    ``V1 > 0`` on the covering frame of ``_ordered_frame_pair``, and
    ``rho(P2^+ V2) <= 1 - (1 - tau) min(g2 / g1)`` in both builders, with
    ``tau = rho(P1^+ V1) <= 0.9`` and ``g2 / g1 >= 1 / 1.8``."""
    cfg = DEFAULT_TOLERANCES
    for seed in range(8):
        rng = default_rng(seed)
        for theorem in (TheoremId.REGULAR_VS_WEAK, TheoremId.WEAK_VS_REGULAR):
            generators._ordered_frame_pair(rng, theorem, m, n, rank, cfg)
            assert np.all(steering[-1][2] > 0.0)
        generators._blockdiag_weak_pair(rng, m, n, rank, cfg)
    assert len(steering) == 24
    for p1_pinv, p2_pinv, v1, v2 in steering:
        tau = spectral_radius(p1_pinv @ v1)
        p1 = pinv(p1_pinv)
        # P2^+ P1 = sum_i (g2_i / g1_i) u_i u_i^T: its top `rank` eigenvalues
        ratios = np.linalg.eigvalsh(p2_pinv @ p1)[-rank:]
        assert spectral_radius(p2_pinv @ v2) <= 1.0 - (1.0 - tau) * np.min(ratios) + 1e-12
        assert tau <= 0.9 + 1e-12 and np.min(ratios) >= 1.0 / 1.8 - 1e-12


@pytest.mark.parametrize("build", RADIUS_BUILDERS.values(), ids=RADIUS_BUILDERS.keys())
@pytest.mark.parametrize("rho", [-0.5, -1e-300, float("nan")])
def test_a_negative_or_nan_rho_is_refused(build, rho):
    with pytest.raises(ValueError, match="rho must be >= 0"):
        build(default_rng(0), rho)


@pytest.mark.parametrize("build", RADIUS_BUILDERS.values(), ids=RADIUS_BUILDERS.keys())
def test_rho_one_raises_after_one_radius_scale(build, monkeypatch):
    """At rho = 1 the derived A loses rank on every draw: the builder raises
    at once instead of drawing again."""
    calls = []
    scale = generators._radius_scale

    def counting(x, rho):
        calls.append(rho)
        return scale(x, rho)

    monkeypatch.setattr(generators, "_radius_scale", counting)
    with pytest.raises(ValueError, match="within 1e-8 of 1"):
        build(default_rng(0), 1.0)
    assert calls == [1.0]


@pytest.mark.parametrize("theorem", list(TheoremId))
def test_comparison_pair_raises_on_an_unpredicted_pair(theorem, monkeypatch):
    """A pair whose check through compare fails is not redrawn."""
    built = []
    for name in ("_ordered_frame_pair", "_shared_p_pair", "_blockdiag_weak_pair"):
        builder = getattr(generators, name)

        def recording(*args, _builder=builder):
            built.append(_builder)
            return _builder(*args)

        monkeypatch.setattr(generators, name, recording)
    monkeypatch.setattr(generators, "compare", lambda *args: SimpleNamespace(conclusion_predicted=False))
    with pytest.raises(RuntimeError, match=theorem.value):
        generators.comparison_pair(default_rng(0), theorem, 6, 5, 3)
    assert len(built) == 1
