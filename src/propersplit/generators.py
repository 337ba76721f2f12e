"""Randomized splitting generators for property tests and soundness sweeps.

The constructions are built on *nonnegative orthogonal frames*: a rank-r
matrix family spanned by rank-one terms ``c_i u_i^T`` where the ``c_i`` (in
R^m) and ``u_i`` (in R^n) are nonnegative unit vectors with pairwise disjoint
supports.  Orthogonality makes Moore-Penrose inverses exact rank-one sums in
the same frame, and disjoint nonnegative supports make both orthogonal
projectors entrywise nonnegative.  Those two facts let entrywise sign
conditions (P^+ >= 0, P^+ R >= 0, P1^+ >= P2^+, ...) be arranged by
construction instead of by rejection sampling:

* ``P = sum_i (1/g_i) c_i u_i^T`` has ``P^+ = sum_i g_i u_i c_i^T >= 0``.
* With row projector ``Pi = sum_i u_i u_i^T >= 0``, any ``H = Pi H0 Pi >= 0``
  yields a weak regular splitting ``A = P - V`` with ``V = P H`` and
  ``P^+ V = H`` whose iteration radius is exactly ``rho(H)`` (a free knob).
* Shrinking per-direction coefficients ``g2 <= g1`` gives a second splitting
  matrix of the same frame with ``P1^+ >= P2^+`` and ``P2 - P1 >= 0`` exactly.

Splitting V into the double-splitting terms uses entrywise convex splits
``R = V . theta`` and ``S = -(V . (1 - theta))``, which preserve ``R - S = V``
exactly; adding a component supported on the orthogonal complement of
range(A) produces weak-regular-but-not-regular instances without touching
the iteration matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .comparison import TheoremId, compare
from .core import DEFAULT_TOLERANCES, ToleranceConfig, as_matrix, pinv, spectral_radius
from .double import ProperDoubleSplitting, make_pds
from .splitting import ProperSplitting, make_proper_splitting

__all__ = [
    "Frame",
    "random_frame",
    "weak_regular_double",
    "regular_double",
    "weak_regular_single",
    "weak_regular_single_square",
    "comparison_pair",
    "nonneg_block_pair",
    "perturbed_proper_splitting",
    "rank_deficient_matrix",
    "semimonotone_matrix",
]

_MAX_TRIES = 80


@dataclass(frozen=True, eq=False)
class Frame:
    """Orthonormal nonnegative rank-one frame for an m x n rank-r family.

    ``left`` is m x r and spans the target column space, ``right`` is n x r
    and spans the target row space; columns are unit vectors, nonnegative,
    with disjoint supports within each side.
    """

    left: np.ndarray
    right: np.ndarray

    @property
    def m(self) -> int:
        return self.left.shape[0]

    @property
    def n(self) -> int:
        return self.right.shape[0]

    @property
    def rank(self) -> int:
        return self.left.shape[1]

    def col_projector(self) -> np.ndarray:
        """Projector onto the column space; entrywise nonnegative."""
        return self.left @ self.left.T

    def row_projector(self) -> np.ndarray:
        """Projector onto the row space; entrywise nonnegative."""
        return self.right @ self.right.T

    def rank_one_sum(self, coeffs) -> np.ndarray:
        """``sum_i coeffs[i] * left_i right_i^T`` (an m x n matrix)."""
        coeffs = np.asarray(coeffs, dtype=float)
        return self.left @ (coeffs[:, None] * self.right.T)

    def splitting_matrix(self, g) -> np.ndarray:
        """P with per-direction gains 1/g, so that P^+ has gains g."""
        return self.rank_one_sum(1.0 / np.asarray(g, dtype=float))

    def splitting_pinv(self, g) -> np.ndarray:
        """Exact Moore-Penrose inverse of :meth:`splitting_matrix`."""
        g = np.asarray(g, dtype=float)
        return self.right @ (g[:, None] * self.left.T)


def _disjoint_supports(rng, total, groups, cover):
    idx = rng.permutation(total)
    if not cover and total > groups:
        keep = rng.integers(groups, total)
        idx = idx[:keep]
    cuts = np.sort(rng.choice(np.arange(1, idx.size), size=groups - 1, replace=False)) if groups > 1 else np.array([], dtype=int)
    return np.split(idx, cuts)


def random_frame(
    rng,
    m: int,
    n: int,
    rank: int,
    indicator_left: bool = False,
    cover_left: bool = True,
    cover_right: bool = True,
) -> Frame:
    """Draw a nonnegative orthogonal frame.

    ``indicator_left=True`` makes each left vector constant on its support
    (so the all-ones vector lies in the spanned column space when
    ``cover_left`` holds).  Turning a cover flag off leaves some coordinates
    outside every support, which produces zero rows or columns downstream.
    """
    if not 1 <= rank <= min(m, n):
        raise ValueError(f"rank must lie in [1, min(m, n)], got {rank}")
    left_supports = _disjoint_supports(rng, m, rank, cover_left)
    right_supports = _disjoint_supports(rng, n, rank, cover_right)
    left = np.zeros((m, rank))
    right = np.zeros((n, rank))
    for i, sup in enumerate(left_supports):
        vals = np.ones(sup.size) if indicator_left else rng.uniform(0.3, 1.3, sup.size)
        left[sup, i] = vals / np.linalg.norm(vals)
    for i, sup in enumerate(right_supports):
        vals = rng.uniform(0.3, 1.3, sup.size)
        right[sup, i] = vals / np.linalg.norm(vals)
    return Frame(left, right)


def _radius_scale(x: np.ndarray, rho: float) -> float | None:
    """``rho / rho(x)`` from one eigensolve of the iteration matrix x, or None
    when ``rho(x)`` is negligible or x so scaled has an eigenvalue within 1e-8
    of 1, where the derived ``A = U(I - x)`` would lose rank."""
    vals = np.linalg.eigvals(x)
    radius = float(np.max(np.abs(vals)))
    if radius <= 1e-12:
        return None
    scale = rho / radius
    if np.min(np.abs(1.0 - vals * scale)) <= 1e-8:
        return None
    return scale


def _projected_nonneg(rng, frame: Frame, rho: float) -> np.ndarray:
    """Nonnegative H = Pi H0 Pi with spectral radius exactly rho."""
    proj = frame.row_projector()
    for _ in range(_MAX_TRIES):
        h = proj @ rng.uniform(0.0, 1.0, (frame.n, frame.n)) @ proj
        scale = _radius_scale(h, rho)
        if scale is not None:
            return h * scale
    raise RuntimeError("could not draw a projected nonnegative matrix")


def _convex_split(v: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split V into (R, S) with R - S = V exactly: R = V.theta, S = -(V.(1-theta))."""
    r = v * theta
    return r, r - v


def _frame_project(frame: Frame, mat: np.ndarray) -> np.ndarray:
    """Re-project a frame-supported matrix onto the frame subspaces.

    Matrices like A = P(I - H) are tiny differences of order-one products;
    the subtraction leaves absolute roundoff outside the frame subspaces,
    which can read as spurious rank when A itself is small.  Sandwiching with
    the projectors turns that into roundoff relative to A, which the rank
    cutoff absorbs.
    """
    return frame.col_projector() @ mat @ frame.row_projector()


def _nullspace_shift(rng, frame: Frame, amplitude: float) -> np.ndarray:
    """A shift supported on the complement of range(A); invisible to P^+."""
    z = (np.eye(frame.m) - frame.col_projector()) @ rng.standard_normal((frame.m, frame.n))
    peak = np.max(np.abs(z))
    if peak <= 0.0:
        return np.zeros((frame.m, frame.n))
    return z * (amplitude / peak)


def weak_regular_double(
    rng,
    m: int,
    n: int,
    rank: int,
    rho: float,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    frame: Frame | None = None,
    nullspace_mix: float = 0.0,
) -> ProperDoubleSplitting:
    """Weak regular proper double splitting with rho(P^+(R-S)) = rho exactly.

    rho < 1 makes the derived A semi-monotone; rho > 1 makes it provably not.
    ``nullspace_mix > 0`` perturbs R and S off the entrywise-nonnegative cone
    without changing A, P^+R or P^+S.
    """
    frame = frame or random_frame(rng, m, n, rank)
    g = rng.uniform(0.7, 1.5, frame.rank)
    p = frame.splitting_matrix(g)
    h = _projected_nonneg(rng, frame, rho)
    lam = rng.uniform(0.05, 0.95, (frame.n, frame.n))
    ph = p @ h
    r = p @ (h * lam)
    s = r - ph
    a = _frame_project(frame, p - ph)
    if nullspace_mix > 0.0:
        z = _nullspace_shift(rng, frame, nullspace_mix * max(np.max(np.abs(ph)), 1e-3))
        r = r - z
        s = s - z
    del ph  # as large as A: not kept alive while make_pds factors P
    return make_pds(a, p, r, s, cfg)


def regular_double(
    rng,
    m: int,
    n: int,
    rank: int,
    rho: float,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    frame: Frame | None = None,
) -> ProperDoubleSplitting:
    """Regular proper double splitting (R >= 0, -S >= 0) with iteration radius rho."""
    frame = frame or random_frame(rng, m, n, rank)
    g = rng.uniform(0.7, 1.5, frame.rank)
    p = frame.splitting_matrix(g)
    p_pinv = frame.splitting_pinv(g)
    for _ in range(_MAX_TRIES):
        v = frame.col_projector() @ rng.uniform(0.2, 1.0, (m, n)) @ frame.row_projector()
        scale = _radius_scale(p_pinv @ v, rho)
        if scale is None:
            continue
        v = v * scale
        theta = rng.uniform(0.05, 0.95, (m, n))
        r, s = _convex_split(v, theta)
        return make_pds(_frame_project(frame, p - v), p, r, s, cfg)
    raise RuntimeError("could not draw a regular double splitting")


def weak_regular_single(
    rng,
    m: int,
    n: int,
    rank: int,
    rho: float,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    frame: Frame | None = None,
) -> ProperSplitting:
    """Weak regular proper single splitting A = U - V with rho(U^+ V) = rho."""
    frame = frame or random_frame(rng, m, n, rank)
    g = rng.uniform(0.7, 1.5, frame.rank)
    u = frame.splitting_matrix(g)
    h = _projected_nonneg(rng, frame, rho)
    return make_proper_splitting(_frame_project(frame, u - u @ h), u, cfg)


def weak_regular_single_square(
    rng, n: int, rho: float, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> ProperSplitting:
    """Square weak regular splitting whose U itself has mixed signs.

    U is the inverse of a random nonnegative matrix, so U^+ = U^{-1} >= 0
    while U (and V = U H) usually leave the nonnegative cone; U^+ V = H >= 0
    keeps the splitting weak regular with iteration radius exactly rho.
    """
    for _ in range(_MAX_TRIES):
        g = rng.uniform(0.0, 1.0, (n, n)) + np.eye(n)
        try:
            u = np.linalg.inv(g)
        except np.linalg.LinAlgError:
            continue
        h = rng.uniform(0.0, 1.0, (n, n))
        scale = _radius_scale(h, rho)
        if scale is None:
            continue
        h = h * scale
        return make_proper_splitting(u - u @ h, u, cfg)
    raise RuntimeError("could not draw a square weak regular splitting")


def nonneg_block_pair(rng, n: int, rho: float, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
    """Nonnegative (B, C) with rho(B + C) = rho exactly."""
    b = rng.uniform(0.0, 1.0, (n, n))
    c = rng.uniform(0.0, 1.0, (n, n))
    scale = rho / spectral_radius(b + c, cfg)
    return b * scale, c * scale


def rank_deficient_matrix(rng, m: int, n: int, rank: int) -> np.ndarray:
    """Random m x n matrix of the given rank (0 gives the zero matrix)."""
    if rank == 0:
        return np.zeros((m, n))
    return rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))


def semimonotone_matrix(rng, m: int, n: int, rank: int) -> np.ndarray:
    """Matrix A with A^+ >= 0, built as the pseudoinverse of a nonnegative matrix."""
    b = rng.uniform(0.1, 1.0, (n, rank)) @ rng.uniform(0.1, 1.0, (rank, m))
    return pinv(b)


def perturbed_proper_splitting(
    rng, a, cfg: ToleranceConfig = DEFAULT_TOLERANCES, scale: float = 0.5
) -> ProperSplitting:
    """Generic proper splitting of a given A via U = A(I + N).

    N has its rows projected onto the row space of A (so it vanishes on the
    null space) and is scaled below unit norm (so I + N acts invertibly on
    the row space); together these preserve both subspace conditions.
    """
    a = as_matrix(a)
    n = a.shape[1]
    nmat = rng.standard_normal((n, n)) @ (pinv(a, cfg) @ a)
    norm = np.linalg.norm(nmat, 2)
    if norm > 0.0:
        nmat = nmat * (scale / norm)
    return make_proper_splitting(a, a + a @ nmat, cfg)


def _steer_branch_i(rng, p1_pinv, r1, p2_pinv, v2):
    """Scale a convex split of v2 so that P1^+ R1 >= P2^+ R2 entrywise."""
    theta2 = rng.uniform(0.1, 0.9, v2.shape)
    m1 = p1_pinv @ r1
    m2 = p2_pinv @ (v2 * theta2)
    mask = m2 > 1e-15
    if not np.any(mask):
        return theta2
    c_star = float(np.min(m1[mask] / m2[mask]))
    if c_star <= 0.0:
        return None
    return theta2 * min(1.0, c_star) * rng.uniform(0.5, 0.95)


def _steer_branch_ii(rng, p1_pinv, v1, theta1, p2_pinv, v2):
    """Rescale d1's split so that P1^+ S1 >= P2^+ S2 entrywise."""
    theta2 = rng.uniform(0.1, 0.9, v2.shape)
    m2s = p2_pinv @ (v2 * (1.0 - theta2))
    m1s = p1_pinv @ (v1 * (1.0 - theta1))
    mask = m1s > 1e-15
    if np.any(mask):
        c_star = float(np.min(m2s[mask] / m1s[mask]))
        if c_star <= 0.0:
            return None
        theta1 = 1.0 - (1.0 - theta1) * min(1.0, c_star) * rng.uniform(0.5, 0.95)
    return theta1, theta2


def _ordered_p_pair(rng, frame: Frame):
    """P1, P2 on one frame with gains g2 <= g1: P1^+ >= P2^+ >= 0 and P2 - P1 >= 0 exactly.

    Returns ``g1, P1, P2, (P1^+, P2^+)``.
    """
    g1 = rng.uniform(0.7, 1.5, frame.rank)
    g2 = g1 / (1.0 + rng.uniform(0.1, 0.8) * rng.uniform(0.0, 1.0, frame.rank))
    p_pinvs = (frame.splitting_pinv(g1), frame.splitting_pinv(g2))
    return g1, frame.splitting_matrix(g1), frame.splitting_matrix(g2), p_pinvs


def _steered_splits(rng, p_pinvs, v1, v2):
    """Convex splits of V1 and V2 steered to branch (i) or (ii), picked by a coin.

    Returns ``(R1, S1, R2, S2)``, or None when the steering finds no scale.
    """
    p1_pinv, p2_pinv = p_pinvs
    theta1 = rng.uniform(0.1, 0.9, v1.shape)
    if rng.uniform() < 0.5:
        r1, s1 = _convex_split(v1, theta1)
        theta2 = _steer_branch_i(rng, p1_pinv, r1, p2_pinv, v2)
        if theta2 is None:
            return None
    else:
        steered = _steer_branch_ii(rng, p1_pinv, v1, theta1, p2_pinv, v2)
        if steered is None:
            return None
        theta1, theta2 = steered
        r1, s1 = _convex_split(v1, theta1)
    return (r1, s1, *_convex_split(v2, theta2))


def _ordered_frame_pair(rng, theorem, m, n, rank, cfg):
    """d1, d2 on one frame with P1^+ >= P2^+ and a steered branch condition."""
    indicator = theorem is TheoremId.WEAK_VS_REGULAR
    frame = random_frame(rng, m, n, rank, indicator_left=indicator)
    _, p1, p2, p_pinvs = _ordered_p_pair(rng, frame)

    v1 = frame.col_projector() @ rng.uniform(0.2, 1.0, (m, n)) @ frame.row_projector()
    radius = spectral_radius(p_pinvs[0] @ v1, cfg)
    if radius <= 1e-12:
        return None
    v1 = v1 * (rng.uniform(0.2, 0.9) / radius)
    a = _frame_project(frame, p1 - v1)
    v2 = v1 + (p2 - p1)  # >= 0: p2 - p1 is a nonneg rank-one sum
    if spectral_radius(p_pinvs[1] @ v2, cfg) > 0.98:
        return None
    splits = _steered_splits(rng, p_pinvs, v1, v2)
    if splits is None:
        return None
    r1, s1, r2, s2 = splits

    # weak-regular side may leave the nonnegative cone without changing W
    if theorem is TheoremId.REGULAR_VS_WEAK and rng.uniform() < 0.5:
        z = _nullspace_shift(rng, frame, 0.3 * max(np.max(v2), 1e-3))
        r2, s2 = r2 - z, s2 - z
    if theorem is TheoremId.WEAK_VS_REGULAR and rng.uniform() < 0.5:
        z = _nullspace_shift(rng, frame, 0.3 * max(np.max(v1), 1e-3))
        r1, s1 = r1 - z, s1 - z

    return make_pds(a, p1, r1, s1, cfg), make_pds(a, p2, r2, s2, cfg)


def _shared_p_pair(rng, m, n, rank, cfg):
    """Two weak regular splittings with the same P: P1^+ A = P2^+ A exactly.

    The split weights satisfy lam1 >= lam2 entrywise, which makes both branch
    conditions hold at once.
    """
    frame = random_frame(rng, m, n, rank)
    g = rng.uniform(0.7, 1.5, frame.rank)
    p = frame.splitting_matrix(g)
    h = _projected_nonneg(rng, frame, rng.uniform(0.2, 0.9))
    lam2 = rng.uniform(0.05, 0.95, (n, n))
    lam1 = lam2 + rng.uniform(0.0, 1.0, (n, n)) * (1.0 - lam2)
    ph = p @ h
    a = _frame_project(frame, p - ph)
    out = []
    for lam in (lam1, lam2):
        r = p @ (h * lam)
        s = r - ph
        out.append(make_pds(a, p, r, s, cfg))
    return out[0], out[1]


def _blockdiag_weak_pair(rng, m, n, rank, cfg):
    """Frame-coefficient pair with strict P1^+ A >= P2^+ A.

    V is block diagonal in the frame, so the ordering condition reduces to
    per-direction scalar inequalities that hold whenever the iteration radius
    stays below one.
    """
    frame = random_frame(rng, m, n, rank)
    g1, p1, p2, p_pinvs = _ordered_p_pair(rng, frame)
    tau = rng.uniform(0.2, 0.9)
    nu = rng.uniform(0.2, 1.0, frame.rank)
    nu = nu * (tau / np.max(g1 * nu))
    v1 = frame.rank_one_sum(nu)
    a = _frame_project(frame, p1 - v1)
    splits = _steered_splits(rng, p_pinvs, v1, v1 + (p2 - p1))
    if splits is None:
        return None
    r1, s1, r2, s2 = splits
    return make_pds(a, p1, r1, s1, cfg), make_pds(a, p2, r2, s2, cfg)


def comparison_pair(
    rng,
    theorem: TheoremId,
    m: int,
    n: int,
    rank: int,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> tuple[ProperDoubleSplitting, ProperDoubleSplitting]:
    """Draw a pair satisfying every hypothesis of the given comparison theorem.

    The returned pair is re-verified through the corresponding checker; the
    construction is retried until ``conclusion_predicted`` is true.
    """
    for _ in range(_MAX_TRIES):
        if theorem is TheoremId.WEAK_VS_WEAK:
            if rng.uniform() < 0.6:
                pair = _shared_p_pair(rng, m, n, rank, cfg)
            else:
                pair = _blockdiag_weak_pair(rng, m, n, rank, cfg)
        else:
            pair = _ordered_frame_pair(rng, theorem, m, n, rank, cfg)
        if pair is None:
            continue
        if compare(theorem, pair[0], pair[1], cfg).conclusion_predicted:
            return pair
    raise RuntimeError(f"could not generate a hypothesis-satisfying pair for {theorem.value}")
