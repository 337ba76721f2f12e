"""Frame-coordinate generators against the dense construction they replaced.

The reference below builds each draw as the generators once did: projector
sandwiches ``Pi_col X Pi_row`` of m x n and n x n matrices, radii from n x n
eigensolves, and derived matrices such as ``A = P(I - H)`` re-projected onto
the frame.  From the same seed both must give the same instance to rounding
and leave the generator in the same state.
"""

import numpy as np
import pytest
from numpy.random import default_rng

from propersplit import (
    DEFAULT_TOLERANCES,
    classify_double,
    classify_single,
    make_pds,
    make_proper_splitting,
)
from propersplit import generators
from propersplit.comparison import TheoremId
from propersplit.generators import Frame

RTOL = 1e-12
SIZES = [(6, 5, 3), (5, 6, 2), (12, 10, 5), (30, 24, 12)]


def ref_supports(rng, total, groups, cover):
    idx = rng.permutation(total)
    if not cover and total > groups:
        keep = rng.integers(groups, total)
        idx = idx[:keep]
    cuts = np.sort(rng.choice(np.arange(1, idx.size), size=groups - 1, replace=False)) if groups > 1 else np.array([], dtype=int)
    return np.split(idx, cuts)


def ref_random_frame(rng, m, n, rank, indicator_left=False, cover_right=True):
    left_supports = ref_supports(rng, m, rank, True)
    right_supports = ref_supports(rng, n, rank, cover_right)
    left, right = np.zeros((m, rank)), np.zeros((n, rank))
    for i, sup in enumerate(left_supports):
        vals = np.ones(sup.size) if indicator_left else rng.uniform(0.3, 1.3, sup.size)
        left[sup, i] = vals / np.linalg.norm(vals)
    for i, sup in enumerate(right_supports):
        vals = rng.uniform(0.3, 1.3, sup.size)
        right[sup, i] = vals / np.linalg.norm(vals)
    return Frame(left, right)


def ref_radius_scale(x, rho):
    vals = np.linalg.eigvals(x)
    radius = float(np.max(np.abs(vals)))
    if radius <= 1e-12:
        return None
    scale = rho / radius
    if np.min(np.abs(1.0 - vals * scale)) <= 1e-8:
        return None
    return scale


def ref_project(frame, mat):
    return frame.left @ frame.left.T @ mat @ (frame.right @ frame.right.T)


def ref_projected_nonneg(rng, frame, rho):
    proj = frame.right @ frame.right.T
    while True:
        h = proj @ rng.uniform(0.0, 1.0, (frame.n, frame.n)) @ proj
        scale = ref_radius_scale(h, rho)
        if scale is not None:
            return h * scale


def ref_nullspace_shift(rng, frame, amplitude):
    z = (np.eye(frame.m) - frame.left @ frame.left.T) @ rng.standard_normal((frame.m, frame.n))
    return z * (amplitude / np.max(np.abs(z)))


def ref_weak_regular_double(rng, m, n, rank, rho, nullspace_mix=0.0):
    frame = ref_random_frame(rng, m, n, rank)
    g = rng.uniform(0.7, 1.5, rank)
    p = frame.splitting_matrix(g)
    h = ref_projected_nonneg(rng, frame, rho)
    lam = rng.uniform(0.05, 0.95, (n, n))
    ph = p @ h
    r = p @ (h * lam)
    s = r - ph
    a = ref_project(frame, p - ph)
    if nullspace_mix > 0.0:
        z = ref_nullspace_shift(rng, frame, nullspace_mix * max(np.max(np.abs(ph)), 1e-3))
        r, s = r - z, s - z
    return make_pds(a, p, r, s)


def ref_regular_double(rng, m, n, rank, rho):
    frame = ref_random_frame(rng, m, n, rank)
    g = rng.uniform(0.7, 1.5, rank)
    p = frame.splitting_matrix(g)
    while True:
        v = ref_project(frame, rng.uniform(0.2, 1.0, (m, n)))
        scale = ref_radius_scale(frame.splitting_pinv(g) @ v, rho)
        if scale is not None:
            break
    v = v * scale
    r = v * rng.uniform(0.05, 0.95, (m, n))
    return make_pds(ref_project(frame, p - v), p, r, r - v)


def ref_weak_regular_single(rng, m, n, rank, rho):
    frame = ref_random_frame(rng, m, n, rank)
    u = frame.splitting_matrix(rng.uniform(0.7, 1.5, rank))
    h = ref_projected_nonneg(rng, frame, rho)
    return make_proper_splitting(ref_project(frame, u - u @ h), u)


def ref_ordered_frame_pair(rng, theorem, m, n, rank):
    frame = ref_random_frame(rng, m, n, rank, indicator_left=theorem is TheoremId.WEAK_VS_REGULAR)
    _, p1, p2, p_pinvs = generators._ordered_p_pair(rng, frame)
    v1 = ref_project(frame, rng.uniform(0.2, 1.0, (m, n)))
    v1 = v1 * (rng.uniform(0.2, 0.9) / np.max(np.abs(np.linalg.eigvals(p_pinvs[0] @ v1))))
    a = ref_project(frame, p1 - v1)
    v2 = v1 + (p2 - p1)
    r1, s1, r2, s2 = generators._steered_splits(rng, p_pinvs, v1, v2)
    if theorem is TheoremId.REGULAR_VS_WEAK and rng.uniform() < 0.5:
        z = ref_nullspace_shift(rng, frame, 0.3 * max(np.max(v2), 1e-3))
        r2, s2 = r2 - z, s2 - z
    if theorem is TheoremId.WEAK_VS_REGULAR and rng.uniform() < 0.5:
        z = ref_nullspace_shift(rng, frame, 0.3 * max(np.max(v1), 1e-3))
        r1, s1 = r1 - z, s1 - z
    return make_pds(a, p1, r1, s1), make_pds(a, p2, r2, s2)


def ref_shared_p_pair(rng, m, n, rank):
    frame = ref_random_frame(rng, m, n, rank)
    g = rng.uniform(0.7, 1.5, rank)
    p = frame.splitting_matrix(g)
    h = ref_projected_nonneg(rng, frame, rng.uniform(0.2, 0.9))
    lam2 = rng.uniform(0.05, 0.95, (n, n))
    lam1 = lam2 + rng.uniform(0.0, 1.0, (n, n)) * (1.0 - lam2)
    ph = p @ h
    a = ref_project(frame, p - ph)
    return tuple(make_pds(a, p, p @ (h * lam), p @ (h * lam) - ph) for lam in (lam1, lam2))


def ref_blockdiag_weak_pair(rng, m, n, rank):
    frame = ref_random_frame(rng, m, n, rank)
    g1, p1, p2, p_pinvs = generators._ordered_p_pair(rng, frame)
    tau = rng.uniform(0.2, 0.9)
    nu = rng.uniform(0.2, 1.0, rank)
    v1 = frame.rank_one_sum(nu * (tau / np.max(g1 * nu)))
    a = ref_project(frame, p1 - v1)
    r1, s1, r2, s2 = generators._steered_splits(rng, p_pinvs, v1, v1 + (p2 - p1))
    return make_pds(a, p1, r1, s1), make_pds(a, p2, r2, s2)


def assert_close(got, want):
    scale = np.max(np.abs(want))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= RTOL * scale


def assert_same_double(got, want):
    for name in ("a", "p", "r", "s"):
        assert_close(getattr(got, name), getattr(want, name))
    assert classify_double(got) is classify_double(want)
    assert abs(got.radius() - want.radius()) <= RTOL


def draw_both(seed, build, ref):
    """``(got, want)`` from the same seed; the generators end in one state."""
    rng, ref_rng = default_rng(seed), default_rng(seed)
    got, want = build(rng), ref(ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return got, want


@pytest.mark.parametrize("m, n, rank", SIZES)
@pytest.mark.parametrize("indicator_left, cover_right", [(False, True), (True, True), (False, False)])
def test_random_frame_matches_per_support_draws(m, n, rank, indicator_left, cover_right):
    for seed in range(5):
        got, want = draw_both(
            seed,
            lambda rng: generators.random_frame(rng, m, n, rank, indicator_left, cover_right),
            lambda rng: ref_random_frame(rng, m, n, rank, indicator_left, cover_right),
        )
        for side in ("left", "right"):
            assert np.array_equal(getattr(got, side) > 0.0, getattr(want, side) > 0.0)
            assert np.max(np.abs(getattr(got, side) - getattr(want, side))) <= 4e-16


@pytest.mark.parametrize("m, n, rank", SIZES)
def test_projected_nonneg_is_the_projected_sandwich(m, n, rank):
    for seed in range(5):
        frame = ref_random_frame(default_rng(100 + seed), m, n, rank)
        rho = 0.3 + 0.2 * seed
        c, h_ref = draw_both(
            seed,
            lambda rng: generators._projected_nonneg(rng, frame, rho),
            lambda rng: ref_projected_nonneg(rng, frame, rho),
        )
        h = frame.right @ c @ frame.right.T
        assert c.shape == (rank, rank)
        assert np.min(c) >= 0.0 and np.min(h) >= 0.0
        assert abs(np.max(np.abs(np.linalg.eigvals(c))) - rho) <= RTOL
        assert_close(h, h_ref)


@pytest.mark.parametrize("m, n, rank", SIZES)
@pytest.mark.parametrize("rho, mix", [(0.5, 0.0), (0.95, 0.3), (1.2, 0.0)])
def test_weak_regular_double_matches_the_dense_reference(m, n, rank, rho, mix):
    for seed in range(4):
        got, want = draw_both(
            seed,
            lambda rng: generators.weak_regular_double(rng, m, n, rank, rho, nullspace_mix=mix),
            lambda rng: ref_weak_regular_double(rng, m, n, rank, rho, nullspace_mix=mix),
        )
        assert_same_double(got, want)
        assert abs(got.radius() - rho) <= RTOL


@pytest.mark.parametrize("m, n, rank", SIZES)
def test_regular_double_matches_the_dense_reference(m, n, rank):
    for seed in range(4):
        got, want = draw_both(
            seed,
            lambda rng: generators.regular_double(rng, m, n, rank, 0.7),
            lambda rng: ref_regular_double(rng, m, n, rank, 0.7),
        )
        assert_same_double(got, want)
        assert abs(got.radius() - 0.7) <= RTOL


@pytest.mark.parametrize("m, n, rank", SIZES)
def test_weak_regular_single_matches_the_dense_reference(m, n, rank):
    for seed in range(4):
        got, want = draw_both(
            seed,
            lambda rng: generators.weak_regular_single(rng, m, n, rank, 0.4),
            lambda rng: ref_weak_regular_single(rng, m, n, rank, 0.4),
        )
        assert_close(got.a, want.a)
        assert_close(got.u, want.u)
        assert classify_single(got) is classify_single(want)
        assert abs(got.radius() - want.radius()) <= RTOL
        assert abs(got.radius() - 0.4) <= RTOL


@pytest.mark.parametrize("m, n, rank", SIZES)
def test_pair_builders_match_the_dense_reference(m, n, rank):
    cfg = DEFAULT_TOLERANCES
    builders = [
        (lambda rng, t=t: generators._ordered_frame_pair(rng, t, m, n, rank, cfg),
         lambda rng, t=t: ref_ordered_frame_pair(rng, t, m, n, rank))
        for t in (TheoremId.REGULAR_VS_WEAK, TheoremId.WEAK_VS_REGULAR)
    ]
    builders.append((lambda rng: generators._shared_p_pair(rng, m, n, rank, cfg),
                     lambda rng: ref_shared_p_pair(rng, m, n, rank)))
    builders.append((lambda rng: generators._blockdiag_weak_pair(rng, m, n, rank, cfg),
                     lambda rng: ref_blockdiag_weak_pair(rng, m, n, rank)))
    for build, ref in builders:
        for seed in range(4):
            got, want = draw_both(seed, build, ref)
            for d_got, d_want in zip(got, want):
                assert_same_double(d_got, d_want)
