"""Dense real matrix primitives: pseudoinverse, spectra, entrywise order tests.

Everything else in the package funnels through this module.  Matrices are
plain 2-D float64 numpy arrays with finite entries; vectors are 1-D arrays.
All numerical thresholds live in :class:`ToleranceConfig` so a whole pipeline
can be tightened or relaxed in one place.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DecompositionFailure,
    NonFiniteError,
    NotSquareError,
    ShapeMismatchError,
)

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOLERANCES",
    "Spectrum",
    "as_matrix",
    "as_vector",
    "pinv",
    "penrose_residuals",
    "eigenvalues",
    "companion_from_blocks",
    "spectral_radius",
    "matrix_rank",
    "nonneg_residual",
    "is_nonneg",
    "geq",
    "range_projector",
    "nullspace_projector",
    "has_zero_row",
    "max_abs_diff",
    "matrices_equal",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds shared across the package.

    nonneg_slack     absolute entrywise slack for ``>= 0`` tests
    rank_rel_cutoff  relative singular value cutoff in (0, 1); ``None`` selects
                     ``max(m, n) * machine_epsilon``, the standard
                     pseudoinverse rule
    eq_abs_tol       entrywise matrix equality tolerance
    spectral_tol     eigenvalue / spectral radius tolerance
    solve_tol        iterate step tolerance for the solvers
    max_iter         iteration cap for solvers and the Perron fallback
    """

    nonneg_slack: float = 1e-10
    rank_rel_cutoff: float | None = None
    eq_abs_tol: float = 1e-10
    spectral_tol: float = 1e-10
    solve_tol: float = 1e-10
    max_iter: int = 10000

    def __post_init__(self):
        for name in ("nonneg_slack", "eq_abs_tol", "spectral_tol", "solve_tol"):
            if not getattr(self, name) >= 0:  # also rejects NaN
                raise ValueError(f"{name} must be >= 0")
        if self.rank_rel_cutoff is not None and not 0.0 < self.rank_rel_cutoff < 1.0:
            raise ValueError("rank_rel_cutoff must lie in (0, 1)")
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError("max_iter must be a positive integer")


DEFAULT_TOLERANCES = ToleranceConfig()


@dataclass(frozen=True, eq=False)
class Spectrum:
    """All eigenvalues of a square matrix plus derived spectral data.

    ``dominant_vector`` is a nonnegative eigenvector for the spectral radius,
    normalized to unit max entry.  It is populated only for (entrywise)
    nonnegative matrices, where its existence is guaranteed; ``None`` means
    the matrix was not nonnegative or no such vector could be recovered
    numerically.  The field order is the key order of the CLI's ``spectrum``
    JSON document.
    """

    eigenvalues: tuple[complex, ...]
    spectral_radius: float
    dominant_vector: np.ndarray | None


def as_matrix(a, readonly: bool = False) -> np.ndarray:
    """Coerce to a fresh 2-D float64 array, rejecting empty or non-finite input."""
    arr = np.array(a, dtype=float, order="C")
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeMismatchError(f"expected a nonempty 2-D matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("matrix contains NaN or Inf entries")
    if readonly:
        arr.flags.writeable = False
    return arr


def as_vector(x, length: int | None = None) -> np.ndarray:
    """Coerce to a 1-D float64 vector; 2-D input is accepted if one dim is 1."""
    arr = np.array(x, dtype=float)
    if arr.ndim == 2 and 1 in arr.shape:
        arr = arr.reshape(-1)
    if arr.ndim != 1 or arr.size < 1:
        raise ShapeMismatchError(f"expected a vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("vector contains NaN or Inf entries")
    if length is not None and arr.size != length:
        raise ShapeMismatchError(f"expected a vector of length {length}, got {arr.size}")
    return arr


def _rank_cutoff(shape: tuple[int, int], cfg: ToleranceConfig) -> float:
    if cfg.rank_rel_cutoff is not None:
        return cfg.rank_rel_cutoff
    return max(shape) * np.finfo(float).eps


def pinv(a, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD with a relative rank cutoff.

    Singular values below ``cutoff * sigma_max`` are treated as exact zeros.
    The zero matrix maps to the zero matrix of transposed shape, which is the
    unique solution of the four defining equations in that case.
    """
    u_r, s_r, v_r = _kept_svd(a, cfg)
    return (v_r / s_r) @ u_r.T


def _kept_svd(a, cfg: ToleranceConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(U_r, s_r, V_r)``: the r kept singular triplets of one thin SVD,
    ``A ~ U_r diag(s_r) V_r^T``, under :func:`pinv`'s cutoff, so that
    ``(V_r / s_r) @ U_r.T`` is :func:`pinv`'s result.  ``V_r`` (n x r) is an
    orthonormal basis of ``range(A^+)``, A's row space, and ``U_r`` (m x r) one
    of A's column space; r = 0 for the zero matrix."""
    a = as_matrix(a)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise DecompositionFailure(f"SVD did not converge: {exc}") from exc
    # keeps s[0], as the cutoff is < 1, unless s[0] = 0: the zero matrix, r = 0
    keep = s > _rank_cutoff(a.shape, cfg) * s[0]
    return u[:, keep], s[keep], vt[keep].T


def penrose_residuals(a, x) -> tuple[float, float, float, float]:
    """Max-entry residuals of the four defining equations for candidate x.

    Returns ``(|AXA - A|, |XAX - X|, |(AX)^t - AX|, |(XA)^t - XA|)``, each as
    the largest absolute entry of the difference.
    """
    a = as_matrix(a)
    x = as_matrix(x)
    if x.shape != (a.shape[1], a.shape[0]):
        raise ShapeMismatchError(
            f"candidate pseudoinverse has shape {x.shape}, expected {(a.shape[1], a.shape[0])}"
        )
    ax = a @ x
    xa = x @ a
    return (
        float(np.max(np.abs(ax @ a - a))),
        float(np.max(np.abs(xa @ x - x))),
        float(np.max(np.abs(ax.T - ax))),
        float(np.max(np.abs(xa.T - xa))),
    )


def matrix_rank(a, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> int:
    """Numerical rank with the same cutoff rule as :func:`pinv`."""
    a = as_matrix(a)
    try:
        s = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise DecompositionFailure(f"SVD did not converge: {exc}") from exc
    return int(np.count_nonzero(s > _rank_cutoff(a.shape, cfg) * s[0]))


def _sorted_eigenvalues(vals: np.ndarray) -> tuple[complex, ...]:
    # modulus descending, then real part, then imaginary part (deterministic)
    order = np.lexsort((vals.imag, vals.real, -np.abs(vals)))
    return tuple(complex(v) for v in vals[order])


def _perron_vector(m: np.ndarray, vals, vecs, rho: float, cfg: ToleranceConfig):
    """Nonnegative eigenvector for the spectral radius of a nonnegative matrix.

    First scans the eigenvector basis for a candidate attached to an
    eigenvalue of modulus rho with negligible imaginary part; falls back to
    the last iterate of :func:`_perron_bracket` (which preserves
    nonnegativity) if the basis vectors are unusable, e.g. for degenerate
    eigenspaces.  ``None`` when neither gives a vector, as when the bracket
    meets a zero iterate entry on a reducible matrix.
    """
    n = m.shape[0]
    tol = cfg.spectral_tol

    def accept(v: np.ndarray):
        peak = np.max(np.abs(v))
        if peak <= 0.0:
            return None
        # sign fix + unit max entry; adding 0.0 turns each -0.0 into 0.0
        v = v / v[int(np.argmax(np.abs(v)))] + 0.0
        if not is_nonneg(v, cfg):
            return None
        if np.linalg.norm(m @ v - rho * v) > tol * max(1.0, np.linalg.norm(v)):
            return None
        return v

    near = [
        i
        for i in range(n)
        if abs(vals[i]) >= rho - tol * (1.0 + rho) and abs(vals[i].imag) <= tol * (1.0 + rho)
    ]
    near.sort(key=lambda i: -abs(vals[i]))
    for i in near:
        v = accept(np.real(vecs[:, i]))
        if v is not None:
            return v

    # clamping tiny negative entries of m keeps the iterates exactly nonnegative
    bracket = _perron_bracket((np.maximum(m, 0.0),), cfg.max_iter)
    return None if bracket is None else accept(bracket[2])


def eigenvalues(m, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> Spectrum:
    """Full spectrum of a square matrix.

    The spectral radius is the maximum eigenvalue modulus.  For entrywise
    nonnegative matrices a nonnegative dominant eigenvector is attached as
    well (Perron-Frobenius guarantees one exists).
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise NotSquareError(f"eigenvalues need a square matrix, got shape {m.shape}")
    try:
        vals, vecs = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise DecompositionFailure(f"eigenvalue iteration did not converge: {exc}") from exc
    rho = float(np.max(np.abs(vals)))
    dominant = _perron_vector(m, vals, vecs, rho, cfg) if is_nonneg(m, cfg) else None
    return Spectrum(_sorted_eigenvalues(vals), rho, dominant)


def companion_from_blocks(pr: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Assemble ``[[pr, -ps], [I, 0]]`` with exact identity and zero blocks."""
    n = pr.shape[0]
    if pr.shape != (n, n) or ps.shape != (n, n):
        raise ShapeMismatchError("companion blocks must be square and equally sized")
    w = np.zeros((2 * n, 2 * n))
    w[:n, :n] = pr
    w[:n, n:] = -ps
    w[n:, :n] = np.eye(n)
    return w


def spectral_radius(m, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """Maximum eigenvalue modulus of a square matrix."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise NotSquareError(f"spectral radius needs a square matrix, got shape {m.shape}")
    try:
        vals = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise DecompositionFailure(f"eigenvalue iteration did not converge: {exc}") from exc
    return float(np.max(np.abs(vals)))


# The Collatz-Wielandt bracket of _perron_bracket stops at this relative width,
# or at a few times its own rounding bound when that is larger.
_BRACKET_RTOL = 1e-13

# Cost model behind the bracket's step budget, fitted to single-threaded
# OpenBLAS on a shared 2-vCPU x86-64 host: an eigenvalues-only dense solve of
# an N x N matrix took about 0.6 ns * N^3 + 200 ns * N^2 (within 50% for
# N = 40 to 960), and one bracket step about 12 us plus 0.4 ns per block
# entry.  The budget is the number of steps that one eigensolve of the size
# the bracket replaces buys, so a bracket that gives up costs about one more
# eigensolve.
_EIG_NS = (0.6, 200.0)  # per N^3, per N^2
_STEP_NS = (12e3, 0.4)  # per step, per block entry


def _perron_bracket(blocks, budget: int) -> tuple[float, float, np.ndarray] | None:
    """Collatz-Wielandt bracket ``(lo, hi, v)`` of the spectral radius of
    ``blocks[0]`` alone, or of the companion ``[[B1, -B2], [I, 0]]`` of two
    n x n blocks, with ``v`` the last iterate, or ``None`` when it cannot give
    one within ``budget`` steps.

    For an entrywise nonnegative map W and any positive x,
    ``min (Wx)_i / x_i <= rho(W) <= max (Wx)_i / x_i`` (Varga, *Matrix
    Iterative Analysis*, ch. 2), and power iteration from x = e tightens both
    ends.  The full map is iterated, the companion as
    ``(x, y) -> (B1 x - B2 y, x)``, without assembling it: a restriction to a
    subspace is not nonnegative.  Each end is widened by the rounding bound
    ``(n + 2) u`` of a nonnegative dot product and a division.  ``v`` is the
    positive iterate, with unit max entry, whose ratios close the bracket, so
    ``|Wv - rho v| <= (hi - lo) v`` entrywise up to that rounding.

    ``None`` when a block is not exactly sign-correct (``B1 >= 0``,
    ``B2 <= 0``, or the one block ``>= 0``), when an iterate entry is not
    positive, or when the bracket cannot reach its width within ``budget``
    steps; reducible, periodic and slowly mixing maps end there.
    """
    first = blocks[0]
    n = first.shape[0]
    if np.min(first) < 0.0 or (len(blocks) == 2 and np.max(blocks[1]) > 0.0):
        return None
    rounding = (n + 2) * float(np.finfo(float).eps) / 2.0
    target = max(_BRACKET_RTOL, 4.0 * rounding)
    lo, hi = 0.0, np.inf
    widths = []
    v = np.ones(n * len(blocks))  # (x, y) for the companion
    for step in range(budget):
        if len(blocks) == 1:
            wv = first @ v
        else:
            x = v[:n]
            wv = np.concatenate((first @ x - blocks[1] @ v[n:], x))
        ratios = wv / v
        lo_step, hi_step = float(ratios.min()), float(ratios.max())
        if not (lo_step > 0.0 and hi_step < np.inf):  # also catches NaN
            return None
        lo, hi = max(lo, lo_step), min(hi, hi_step)
        low, high = lo * (1.0 - rounding), hi * (1.0 + rounding)
        width = (high - low) / high
        if width <= target:
            return low, high, v
        widths.append(width)
        # give up once the contraction over the last four steps predicts a miss
        if step >= 4:
            rate = (width / widths[-5]) ** 0.25
            if rate >= 1.0 or step + math.log(target / width) / math.log(rate) > budget:
                return None
        v = wv / wv.max()
    return None


def _bracket_budget(blocks, r: int) -> int:
    """Steps of :func:`_perron_bracket` on the n x n ``blocks`` that cost about
    one dense eigensolve of size r (one block) or 2r (companion), the one the
    bracket replaces; see ``_EIG_NS``."""
    n = blocks[0].shape[0]
    size = r * len(blocks)
    eig_ns = (_EIG_NS[0] * size + _EIG_NS[1]) * size**2
    return int(eig_ns / (_STEP_NS[0] + _STEP_NS[1] * len(blocks) * n * n))


def _restricted_radius(basis: np.ndarray, blocks, cfg: ToleranceConfig) -> float:
    """Spectral radius of ``blocks[0]`` alone, or of the companion
    :func:`companion_from_blocks` of two blocks, where every block maps into
    ``range(basis)`` and ``basis`` (n x r) has orthonormal columns.

    This is the one radius rule behind ``check_convergence``,
    ``check_semimonotone_equivalence`` and ``compare``.  For 0 < r <= n the
    radius comes from one of two paths:

    - bracket path: when the blocks are sign-correct (one block ``>= 0``; or
      ``B1 >= 0`` and ``B2 <= 0``, as for a weak regular double splitting) the
      map is nonnegative and the radius is the midpoint of the Collatz-Wielandt
      bracket of :func:`_perron_bracket`, relative width at most
      ``_BRACKET_RTOL`` (or a few times its rounding bound), from matvecs with
      the n x n blocks and no eigensolve.  The bracket gets the steps that the
      eigensolve it replaces would cost (:func:`_bracket_budget`), and one
      that contains 1 is not used, as it cannot decide ``rho < 1``;
    - eigensolve, whenever the bracket gives up: for r < n, with Q = basis,
      each block B satisfies B = Q Q^T B, so ``range(Q)`` (one block) or
      ``range(Q) + range(Q)`` (companion) is invariant and the map is
      nilpotent on the quotient: the spectrum is that of the r x r
      ``Q^T B Q``, or of the 2r x 2r companion of the ``Q^T B_i Q``, plus
      zeros.  For r = n, as in square-corollary mode (an identity basis), the
      full matrix is eigensolved.

    r = 0 gives 0.0 without a bracket or an eigensolve.
    """
    n, r = basis.shape
    if r == 0:
        return 0.0
    bracket = _perron_bracket(blocks, _bracket_budget(blocks, r))
    if bracket is not None and not bracket[0] <= 1.0 <= bracket[1]:
        return 0.5 * (bracket[0] + bracket[1])
    if r < n:
        blocks = [basis.T @ (b @ basis) for b in blocks]
    m = blocks[0] if len(blocks) == 1 else companion_from_blocks(*blocks)
    return spectral_radius(m, cfg)


def nonneg_residual(x) -> float:
    """How far the lowest entry dips below zero, ``max(0, -min x)``: the
    violation residual of ``X >= 0`` behind every sign test of the package."""
    arr = np.asarray(x, dtype=float)
    lowest = float(np.min(arr))  # NaN if any entry is NaN
    if not (np.isfinite(lowest) and np.isfinite(np.max(arr))):
        raise NonFiniteError("nonnegativity test on NaN or Inf entries")
    return max(0.0, -lowest)


def is_nonneg(a, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """True iff every entry is >= -nonneg_slack."""
    return nonneg_residual(a) <= cfg.nonneg_slack


def geq(a, b, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """Entrywise ``a >= b`` up to the nonnegativity slack."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"cannot compare shapes {a.shape} and {b.shape}")
    return is_nonneg(a - b, cfg)


def range_projector(a, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Orthogonal projector onto the column space: ``A A^+``."""
    a = as_matrix(a)
    return a @ pinv(a, cfg)


def nullspace_projector(a, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Orthogonal projector onto the null space: ``I - A^+ A``."""
    a = as_matrix(a)
    return np.eye(a.shape[1]) - pinv(a, cfg) @ a


def has_zero_row(a, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """True iff some row is entirely within nonneg_slack of zero."""
    a = as_matrix(a)
    return bool(np.min(np.max(np.abs(a), axis=1)) <= cfg.nonneg_slack)


def max_abs_diff(a, b) -> float:
    """Largest absolute entrywise difference (shapes must match)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"cannot diff shapes {a.shape} and {b.shape}")
    return float(np.max(np.abs(a - b)))


def matrices_equal(a, b, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """Entrywise equality within eq_abs_tol."""
    return max_abs_diff(a, b) <= cfg.eq_abs_tol
