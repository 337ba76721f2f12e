"""Dense real matrix primitives: pseudoinverse, spectra, entrywise order tests.

Everything else in the package funnels through this module.  Matrices are
plain 2-D float64 numpy arrays with finite entries; vectors are 1-D arrays.
All numerical thresholds live in :class:`ToleranceConfig` so a whole pipeline
can be tightened or relaxed in one place.
"""

from __future__ import annotations

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
    numerically.
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
    a = as_matrix(a)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise DecompositionFailure(f"SVD did not converge: {exc}") from exc
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros((a.shape[1], a.shape[0]))
    keep = s > _rank_cutoff(a.shape, cfg) * s[0]
    if not np.any(keep):
        return np.zeros((a.shape[1], a.shape[0]))
    return (vt[keep].T / s[keep]) @ u[:, keep].T


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
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > _rank_cutoff(a.shape, cfg) * s[0]))


def _sorted_eigenvalues(vals: np.ndarray) -> tuple[complex, ...]:
    # modulus descending, then real part, then imaginary part (deterministic)
    order = np.lexsort((vals.imag, vals.real, -np.abs(vals)))
    return tuple(complex(v) for v in vals[order])


def _perron_vector(m: np.ndarray, vals, vecs, rho: float, cfg: ToleranceConfig):
    """Nonnegative eigenvector for the spectral radius of a nonnegative matrix.

    First scans the eigenvector basis for a candidate attached to an
    eigenvalue of modulus rho with negligible imaginary part; falls back to
    power iteration (which preserves nonnegativity) if the basis vectors are
    unusable, e.g. for degenerate eigenspaces.
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

    # Power iteration fallback; clamping tiny negative entries of m keeps the
    # iterates exactly nonnegative.
    mp = np.maximum(m, 0.0)
    x = np.ones(n)
    for _ in range(cfg.max_iter):
        y = mp @ x
        peak = np.max(y)
        if peak <= 0.0:
            v = accept(x)
            return v
        y = y / peak
        if np.max(np.abs(y - x)) <= tol:
            v = accept(y)
            if v is not None:
                return v
        x = y
    return accept(x)


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
