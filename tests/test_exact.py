"""Exact rational radii for the bundled double splittings.

Every P under ``tests/data`` has full row rank, so ``P^+ = P^T (P P^T)^{-1}``
holds exactly, and ``P^+ R``, ``P^+ S`` and the companion
``W = [[P^+ R, -P^+ S], [I, 0]]`` follow in ``Fraction`` entries.  For a
nonnegative M, ``rho(M) < t`` iff every leading principal minor of
``tI - M`` is positive (``tI - M`` is then a nonsingular M-matrix), so
bisection on t gives an exact bracket of the radius.  The float radii of
:func:`check_convergence` and the signs behind :func:`classify_double` are
checked against these brackets.
"""

import math
from fractions import Fraction
from pathlib import Path

import pytest

from propersplit import DoubleSplittingClass, check_convergence, classify_double, make_pds, read_matrix

DATA = Path(__file__).resolve().parent / "data"
STEPS = 60


def _fractions(x):
    return [[Fraction(float(v)) for v in row] for row in x]


def _transpose(x):
    return [list(col) for col in zip(*x)]


def _matmul(x, y):
    cols = _transpose(y)
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols] for row in x]


def _inverse(x):
    """Gauss-Jordan inverse with row swaps; ZeroDivisionError if x is singular."""
    n = len(x)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(x)]
    for k in range(n):
        pivot = next(i for i in range(k, n) if aug[i][k] != 0)
        aug[k], aug[pivot] = aug[pivot], aug[k]
        aug[k] = [v / aug[k][k] for v in aug[k]]
        for i in range(n):
            if i != k and aug[i][k] != 0:
                aug[i] = [a - aug[i][k] * b for a, b in zip(aug[i], aug[k])]
    return [row[n:] for row in aug]


def _negated(x):
    return [[-v for v in row] for row in x]


def _is_nonneg(x):
    return all(v >= 0 for row in x for v in row)


def _minors_positive(t, m):
    """Whether every leading principal minor of ``tI - m`` is positive: each
    pivot of elimination without row swaps is the ratio of two consecutive
    minors, so the minors are all positive iff the pivots are."""
    n = len(m)
    x = [[(t if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)]
    for k in range(n):
        if x[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = x[i][k] / x[k][k]
            x[i] = [a - f * b for a, b in zip(x[i], x[k])]
    return True


def _radius_bracket(m):
    """``(lo, hi)`` with ``lo <= rho(m) < hi`` for a nonnegative m, after
    STEPS halvings of ``[0, 1 + max row sum]``."""
    lo, hi = Fraction(0), 1 + max(sum(row) for row in m)
    for _ in range(STEPS):
        mid = (lo + hi) / 2
        if _minors_positive(mid, m):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _exact(example, k):
    """Pair k's splitting, as read, and its exact class, rho(W) bracket and
    rho(P^+(R - S)) bracket."""
    mats = [read_matrix(DATA / f"{example}_{x}.mat") for x in ("a", f"p{k}", f"r{k}", f"s{k}")]
    p, r, s = (_fractions(x) for x in mats[1:])
    p_pinv = _matmul(_transpose(p), _inverse(_matmul(p, _transpose(p))))
    pr, ps = _matmul(p_pinv, r), _matmul(p_pinv, s)
    n = len(pr)
    w = [row_r + row_s for row_r, row_s in zip(pr, _negated(ps))]
    w += [[Fraction(int(i == j)) for j in range(2 * n)] for i in range(n)]
    induced = [[x - y for x, y in zip(rx, sx)] for rx, sx in zip(pr, ps)]
    assert _is_nonneg(w) and _is_nonneg(induced)  # the brackets' test needs both
    if not _is_nonneg(p_pinv):
        cls = DoubleSplittingClass.PROPER_ONLY
    elif _is_nonneg(r) and _is_nonneg(_negated(s)):
        cls = DoubleSplittingClass.REGULAR
    elif _is_nonneg(pr) and _is_nonneg(_negated(ps)):
        cls = DoubleSplittingClass.WEAK_REGULAR
    else:
        cls = DoubleSplittingClass.PROPER_ONLY
    return make_pds(*mats), cls, _radius_bracket(w), _radius_bracket(induced)


def _within(x, bracket, rel):
    lo, hi = bracket
    return float(lo) * (1.0 - rel) <= x <= float(hi) * (1.0 + rel)


def _near(x, bracket, tol):
    lo, hi = bracket
    return float(lo) - tol <= x <= float(hi) + tol


PAIRS = [(example, k) for example in ("ex1", "ex2", "sq") for k in (1, 2)]


@pytest.mark.parametrize("example, k", PAIRS, ids=[f"{e}-{k}" for e, k in PAIRS])
def test_float_class_and_radii_match_the_exact_ones(example, k):
    d, cls, rho_w, rho_induced = _exact(example, k)
    assert classify_double(d) is cls is DoubleSplittingClass.REGULAR
    report = check_convergence(d)
    assert _within(report.rho_w, rho_w, 1e-13)
    assert _within(report.rho_induced, rho_induced, 1e-13)


def test_example_two_closed_forms():
    _, _, rho_w1, _ = _exact("ex2", 1)
    _, _, rho_w2, _ = _exact("ex2", 2)
    assert _near((1.0 + math.sqrt(13.0)) / 6.0, rho_w1, 1e-15)
    assert _near(math.sqrt(3.0) / 2.0, rho_w2, 1e-15)


def test_example_one_radii_to_fourteen_digits():
    for k, quoted in ((1, 0.90786878476797), (2, 0.91576095400484)):
        assert _near(quoted, _exact("ex1", k)[2], 5e-15)
