"""Test fixtures that draw matrices and splittings outside the frame
constructions of :mod:`propersplit.generators`: rank-deficient matrices,
nonnegative block pairs, perturbed proper splittings of a given A, and square
weak regular splittings whose U has mixed signs.
"""

import numpy as np

from propersplit import DEFAULT_TOLERANCES, ToleranceConfig, as_matrix, make_proper_splitting, pinv, spectral_radius
from propersplit import generators
from propersplit.splitting import ProperSplitting


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
    h = h * generators._radius_scale(h, rho)
    return make_proper_splitting(u - u @ h, u, cfg)


def nonneg_block_pair(rng, n: int, rho: float, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
    """Nonnegative (B, C) with rho(B + C) = rho exactly; ValueError for rho < 0 or NaN."""
    if not rho >= 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    b = rng.uniform(0.0, 1.0, (n, n))
    c = rng.uniform(0.0, 1.0, (n, n))
    scale = rho / spectral_radius(b + c, cfg)
    return b * scale, c * scale


def rank_deficient_matrix(rng, m: int, n: int, rank: int) -> np.ndarray:
    """Random m x n matrix of the given rank (0 gives the zero matrix)."""
    if rank == 0:
        return np.zeros((m, n))
    return rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))


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
