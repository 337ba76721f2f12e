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

Every draw is built from r x r frame coefficients: with ``L`` (m x r) and
``Rt`` (n x r) the frame's two sides, a frame-supported matrix is ``L X Rt^T``
and is expanded once from its coefficients X.  ``Pi H0 Pi = Rt C Rt^T`` with
``C = Rt^T H0 Rt``, and ``P^+ V = Rt diag(g) X Rt^T`` for ``V = L X Rt^T``,
have the spectra of the r x r ``C`` and ``diag(g) X`` up to zeros, so each
radius takes one r x r eigensolve, and no m x m or n x n projector is formed.
Differences such as ``A = P(I - H)`` are taken on the coefficients: A is a
small difference of order-one terms when rho nears 1, and a difference taken
on m x n matrices would leave absolute roundoff outside the frame subspaces,
which can read as spurious rank.

Each draw is made once: no generator retries or redraws.  ``rho < 0``, or
``rho`` within 1e-8 of 1 (where the derived A would lose rank), raises
ValueError, and :func:`comparison_pair` raises RuntimeError if its one pair
fails a hypothesis when checked through :func:`compare`.

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
    """Disjoint non-empty supports of ``groups`` columns among ``total`` rows,
    as ``(rows, cols)``: row ``rows[k]`` lies in the support of ``cols[k]``."""
    idx = rng.permutation(total)
    if not cover and total > groups:
        keep = rng.integers(groups, total)
        idx = idx[:keep]
    cuts = np.sort(rng.choice(np.arange(1, idx.size), size=groups - 1, replace=False)) if groups > 1 else np.array([], dtype=int)
    return idx, np.repeat(np.arange(groups), np.diff(cuts, prepend=0, append=idx.size))


def _unit_columns(total, groups, supports, vals) -> np.ndarray:
    """total x groups matrix holding ``vals`` on the supports, each column
    scaled to unit norm."""
    rows, cols = supports
    out = np.zeros((total, groups))
    norms = np.sqrt(np.bincount(cols, weights=vals * vals, minlength=groups))
    out[rows, cols] = vals / norms[cols]
    return out


def random_frame(
    rng,
    m: int,
    n: int,
    rank: int,
    indicator_left: bool = False,
    cover_right: bool = True,
) -> Frame:
    """Draw a nonnegative orthogonal frame.

    ``indicator_left=True`` makes each left vector constant on its support
    (so the all-ones vector lies in the spanned column space).  Turning
    ``cover_right`` off leaves some coordinates outside every right support,
    which produces zero columns downstream.  Each side's values come from
    one ``uniform`` call, support after support.
    """
    if not 1 <= rank <= min(m, n):
        raise ValueError(f"rank must lie in [1, min(m, n)], got {rank}")
    left_supports = _disjoint_supports(rng, m, rank, cover=True)
    right_supports = _disjoint_supports(rng, n, rank, cover_right)
    left_vals = np.ones(m) if indicator_left else rng.uniform(0.3, 1.3, m)
    right_vals = rng.uniform(0.3, 1.3, right_supports[0].size)
    return Frame(
        _unit_columns(m, rank, left_supports, left_vals),
        _unit_columns(n, rank, right_supports, right_vals),
    )


def _radius_scale(x: np.ndarray, rho: float) -> float:
    """``rho / rho(x)`` from one eigensolve of x, an entrywise positive
    iteration matrix or its r x r frame coefficients (the same spectrum but
    for zeros).  Raises ValueError for ``rho < 0`` or NaN, and where x so
    scaled has an eigenvalue within 1e-8 of 1 (its Perron root does for rho
    that near 1): the derived ``A = U(I - x)`` would lose rank."""
    if not rho >= 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    vals = np.linalg.eigvals(x)
    scale = rho / float(np.max(np.abs(vals)))
    if np.min(np.abs(1.0 - vals * scale)) <= 1e-8:
        raise ValueError(f"rho = {rho} puts an eigenvalue within 1e-8 of 1: the derived A would lose rank")
    return scale


def _projected_nonneg(rng, frame: Frame, rho: float) -> np.ndarray:
    """Frame coefficients ``C >= 0`` of ``H = Pi H0 Pi = Rt C Rt^T``, scaled
    so that ``rho(H) = rho(C) = rho`` exactly; one r x r eigensolve."""
    c = frame.right.T @ rng.uniform(0.0, 1.0, (frame.n, frame.n)) @ frame.right
    return c * _radius_scale(c, rho)


def _convex_split(v: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split V into (R, S) with R - S = V exactly: R = V.theta, S = -(V.(1-theta))."""
    r = v * theta
    return r, r - v


def _expand(frame: Frame, x: np.ndarray) -> np.ndarray:
    """``L X Rt^T``: the m x n matrix with r x r frame coefficients x."""
    return frame.left @ x @ frame.right.T


def _weak_regular_parts(frame: Frame, g: np.ndarray, c: np.ndarray):
    """``(A, P H, H)`` for ``P = L diag(1/g) Rt^T`` and ``H = Rt C Rt^T``:
    ``P H = L diag(1/g) C Rt^T`` and ``A = P(I - H)``, each expanded from
    its coefficients."""
    gc = c / g[:, None]
    h = frame.right @ c @ frame.right.T
    return _expand(frame, np.diag(1.0 / g) - gc), _expand(frame, gc), h


def _nullspace_shift(rng, frame: Frame, amplitude: float) -> np.ndarray:
    """A shift supported on the complement of range(A); invisible to P^+."""
    z = rng.standard_normal((frame.m, frame.n))
    z = z - frame.left @ (frame.left.T @ z)
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
    c = _projected_nonneg(rng, frame, rho)
    lam = rng.uniform(0.05, 0.95, (frame.n, frame.n))
    a, ph, h = _weak_regular_parts(frame, g, c)
    r = p @ (h * lam)
    s = r - ph
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
) -> ProperDoubleSplitting:
    """Regular proper double splitting (R >= 0, -S >= 0) with iteration radius rho."""
    frame = random_frame(rng, m, n, rank)
    g = rng.uniform(0.7, 1.5, frame.rank)
    p = frame.splitting_matrix(g)
    # V = Pi_col V0 Pi_row = L X Rt^T with X = L^T V0 Rt
    x = frame.left.T @ rng.uniform(0.2, 1.0, (m, n)) @ frame.right
    x = x * _radius_scale(g[:, None] * x, rho)  # P^+ V = Rt diag(g) X Rt^T
    theta = rng.uniform(0.05, 0.95, (m, n))
    r, s = _convex_split(_expand(frame, x), theta)
    return make_pds(_expand(frame, np.diag(1.0 / g) - x), p, r, s, cfg)


def weak_regular_single(
    rng,
    m: int,
    n: int,
    rank: int,
    rho: float,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> ProperSplitting:
    """Weak regular proper single splitting A = U - V with rho(U^+ V) = rho."""
    frame = random_frame(rng, m, n, rank)
    g = rng.uniform(0.7, 1.5, frame.rank)
    u = frame.splitting_matrix(g)
    c = _projected_nonneg(rng, frame, rho)
    return make_proper_splitting(_expand(frame, (np.eye(frame.rank) - c) / g[:, None]), u, cfg)


def weak_regular_single_square(
    rng, n: int, rho: float, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> ProperSplitting:
    """Square weak regular splitting whose U itself has mixed signs.

    U is the inverse of a random nonnegative matrix, so U^+ = U^{-1} >= 0
    while U (and V = U H) usually leave the nonnegative cone; U^+ V = H >= 0
    keeps the splitting weak regular with iteration radius exactly rho.  A
    singular ``I + U(0, 1)`` raises numpy's LinAlgError.
    """
    u = np.linalg.inv(rng.uniform(0.0, 1.0, (n, n)) + np.eye(n))
    h = rng.uniform(0.0, 1.0, (n, n))
    h = h * _radius_scale(h, rho)
    return make_proper_splitting(u - u @ h, u, cfg)


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


def _ordered_p_pair(rng, frame: Frame):
    """P1, P2 on one frame with gains g2 <= g1: P1^+ >= P2^+ >= 0 and P2 - P1 >= 0 exactly.

    Returns ``g1, P1, P2, (P1^+, P2^+)``.
    """
    g1 = rng.uniform(0.7, 1.5, frame.rank)
    g2 = g1 / (1.0 + rng.uniform(0.1, 0.8) * rng.uniform(0.0, 1.0, frame.rank))
    p_pinvs = (frame.splitting_pinv(g1), frame.splitting_pinv(g2))
    return g1, frame.splitting_matrix(g1), frame.splitting_matrix(g2), p_pinvs


def _capped_ratio(num: np.ndarray, den: np.ndarray) -> float:
    """``min(1, min num / den)`` over the entries where ``den > 1e-15``."""
    mask = den > 1e-15
    return min(1.0, float(np.min(num[mask] / den[mask])))


def _steered_splits(rng, p_pinvs, v1, v2):
    """Convex splits ``(R1, S1, R2, S2)`` of V1 and V2, steered by a coin to
    branch (i), ``P1^+ R1 >= P2^+ R2``, or branch (ii), ``P1^+ S1 >= P2^+ S2``.
    Each caller makes ``P1^+ (V1 . theta1)`` and ``P2^+ (V2 . theta2)``
    positive on the same entries and 0 elsewhere, so every mask of
    :func:`_capped_ratio` is non-empty and its ratio positive."""
    p1_pinv, p2_pinv = p_pinvs
    theta1 = rng.uniform(0.1, 0.9, v1.shape)
    branch_i = rng.uniform() < 0.5
    theta2 = rng.uniform(0.1, 0.9, v2.shape)
    if branch_i:  # shrink P2^+ R2 below P1^+ R1
        ratio = _capped_ratio(p1_pinv @ (v1 * theta1), p2_pinv @ (v2 * theta2))
        theta2 = theta2 * ratio * rng.uniform(0.5, 0.95)
    else:  # shrink P1^+ (-S1) below P2^+ (-S2)
        ratio = _capped_ratio(p2_pinv @ (v2 * (1.0 - theta2)), p1_pinv @ (v1 * (1.0 - theta1)))
        theta1 = 1.0 - (1.0 - theta1) * ratio * rng.uniform(0.5, 0.95)
    return (*_convex_split(v1, theta1), *_convex_split(v2, theta2))


def _ordered_frame_pair(rng, theorem, m, n, rank, cfg):
    """d1, d2 on one frame with P1^+ >= P2^+ and a steered branch condition.

    The frame covers every coordinate (left supports always, right ones
    under ``random_frame``'s ``cover_right=True``), so
    ``V1 = L X Rt^T`` with ``X = L^T U(0.2, 1) Rt``, both
    ``P_i^+ (V_i . theta)`` and so ``rho(P1^+ V1)`` are positive.  In frame
    coordinates on ``range(P^+)``, ``P2^+ V2 = D G1 X + (I - D)`` with ``D = diag(g2 / g1)`` in ``[1/1.8, 1]``
    and ``rho(G1 X) = tau <= 0.9``: Collatz-Wielandt at the Perron vector of
    ``G1 X`` gives ``rho(P2^+ V2) <= 1 - (1 - tau) min(g2 / g1) <= 0.945``.
    """
    indicator = theorem is TheoremId.WEAK_VS_REGULAR
    frame = random_frame(rng, m, n, rank, indicator_left=indicator)
    g1, p1, p2, p_pinvs = _ordered_p_pair(rng, frame)

    x = frame.left.T @ rng.uniform(0.2, 1.0, (m, n)) @ frame.right
    x = x * _radius_scale(g1[:, None] * x, rng.uniform(0.2, 0.9))
    v1 = _expand(frame, x)
    a = _expand(frame, np.diag(1.0 / g1) - x)
    v2 = v1 + (p2 - p1)  # >= 0: p2 - p1 is a nonneg rank-one sum
    r1, s1, r2, s2 = _steered_splits(rng, p_pinvs, v1, v2)

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
    c = _projected_nonneg(rng, frame, rng.uniform(0.2, 0.9))
    lam2 = rng.uniform(0.05, 0.95, (n, n))
    lam1 = lam2 + rng.uniform(0.0, 1.0, (n, n)) * (1.0 - lam2)
    a, ph, h = _weak_regular_parts(frame, g, c)
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
    stays below one.  On the covering frame both ``P_i^+ (V_i . theta)`` are
    positive on the diagonal blocks ``supp(u_i) x supp(u_i)`` and exactly 0
    off them.
    """
    frame = random_frame(rng, m, n, rank)
    g1, p1, p2, p_pinvs = _ordered_p_pair(rng, frame)
    tau = rng.uniform(0.2, 0.9)
    nu = rng.uniform(0.2, 1.0, frame.rank)
    nu = nu * (tau / np.max(g1 * nu))
    v1 = frame.rank_one_sum(nu)
    a = frame.rank_one_sum(1.0 / g1 - nu)
    r1, s1, r2, s2 = _steered_splits(rng, p_pinvs, v1, v1 + (p2 - p1))
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

    The frames give every hypothesis by construction: ``A^+ >= 0``, the
    regular or weak regular signs, ``P P^+ >= 0``, ``P1^+ >= P2^+`` (or
    ``P1^+ A >= P2^+ A``), the all-ones vector in ``range(A)`` and no zero
    row in ``P2^+`` (weak-vs-regular), and a branch condition.  The pair is
    drawn once, with no redraw, and still checked through :func:`compare`:
    a pair whose ``conclusion_predicted`` reads false raises RuntimeError."""
    if theorem is not TheoremId.WEAK_VS_WEAK:
        pair = _ordered_frame_pair(rng, theorem, m, n, rank, cfg)
    elif rng.uniform() < 0.6:
        pair = _shared_p_pair(rng, m, n, rank, cfg)
    else:
        pair = _blockdiag_weak_pair(rng, m, n, rank, cfg)
    if not compare(theorem, pair[0], pair[1], cfg).conclusion_predicted:
        raise RuntimeError(f"a generated pair fails a hypothesis of {theorem.value}")
    return pair
