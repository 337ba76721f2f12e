"""Exact rational radii for the bundled double splittings.

Every P under ``tests/data`` has full row rank, so ``P^+ = P^T (P P^T)^{-1}``
holds exactly, and ``P^+ R``, ``P^+ S`` and the companion
``W = [[P^+ R, -P^+ S], [I, 0]]`` follow in ``Fraction`` entries.  For a
nonnegative M, ``rho(M) < t`` iff every leading principal minor of
``tI - M`` is positive (``tI - M`` is then a nonsingular M-matrix), so
bisection on t gives an exact bracket of the radius.  The float radii of
:func:`check_convergence` and the signs behind :func:`classify_double` are
checked against these brackets.  Every A there has full row rank too, so
``A^+ = A^T (A A^T)^{-1}`` is exact as well, and each verdict of
:func:`compare` is checked against the exact sign test its label names.
"""

import functools
import math
from fractions import Fraction
from pathlib import Path

import pytest

from propersplit import (
    Branch,
    DoubleSplittingClass,
    TheoremId,
    check_convergence,
    classify_double,
    compare,
    make_pds,
    read_matrix,
)

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


def _pinv(x):
    """Exact ``x^+ = x^T (x x^T)^{-1}`` of a full row rank x."""
    xt = _transpose(x)
    return _matmul(xt, _inverse(_matmul(x, xt)))


def _negated(x):
    return [[-v for v in row] for row in x]


def _is_nonneg(x):
    return all(v >= 0 for row in x for v in row)


def _geq(x, y):
    return all(a >= b for rx, ry in zip(x, y) for a, b in zip(rx, ry))


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
    mats = _read(example, k)
    p, r, s = (_fractions(x) for x in mats[1:])
    p_pinv = _pinv(p)
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


def _read(example, k):
    """A, P, R and S of the example's pair k, as read."""
    return [read_matrix(DATA / f"{example}_{x}.mat") for x in ("a", f"p{k}", f"r{k}", f"s{k}")]


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


@functools.cache
def _exact_comparison(example):
    """Each hypothesis label of :func:`compare` mapped to the exact sign test
    it names on the example's two pairs, and whether ``rho(W1) <= rho(W2) < 1``
    by the exact brackets, which must decide it."""
    a = _fractions(read_matrix(DATA / f"{example}_a.mat"))
    a_pinv = _pinv(a)
    p, r, s = zip(*(map(_fractions, _read(example, k)[1:]) for k in (1, 2)))
    p_pinv = [_pinv(x) for x in p]
    pr = [_matmul(x, y) for x, y in zip(p_pinv, r)]
    ps = [_matmul(x, y) for x, y in zip(p_pinv, s)]
    signs = {
        "A^+ >= 0": _is_nonneg(a_pinv),
        "e in range(A)": [sum(row) for row in _matmul(a, a_pinv)] == [1] * len(a),
        "P2^+ has no zero row": all(any(row) for row in p_pinv[1]),
        "P1^+ >= P2^+": _geq(p_pinv[0], p_pinv[1]),
        "P1^+ A >= P2^+ A": _geq(_matmul(p_pinv[0], a), _matmul(p_pinv[1], a)),
        "P1^+ R1 >= P2^+ R2": _geq(pr[0], pr[1]),
        "P1^+ S1 >= P2^+ S2": _geq(ps[0], ps[1]),
        "R1 >= R2": _geq(r[0], r[1]),
    }
    for i in (0, 1):
        lowest = _is_nonneg(p_pinv[i])
        regular = _is_nonneg(r[i]) and _is_nonneg(_negated(s[i]))
        weak = _is_nonneg(pr[i]) and _is_nonneg(_negated(ps[i]))
        signs[f"splitting {i + 1} regular"] = lowest and regular
        signs[f"splitting {i + 1} weak regular"] = lowest and weak
        signs[f"P{i + 1} P{i + 1}^+ >= 0"] = _is_nonneg(_matmul(p[i], p_pinv[i]))
    (lo1, hi1), (lo2, hi2) = (_exact(example, k)[2] for k in (1, 2))
    assert (hi1 <= lo2 or hi2 <= lo1) and (hi2 <= 1 or lo2 >= 1)
    return signs, hi1 <= lo2 and hi2 <= 1


# the verdicts outside the hypotheses the conclusion is predicted from
_NOT_REQUIRED = ("P1^+ R1 >= P2^+ R2", "P1^+ S1 >= P2^+ S2", "R1 >= R2")
_BRANCHES = {
    (True, True): Branch.BOTH,
    (True, False): Branch.CONDITION_I,
    (False, True): Branch.CONDITION_II,
    (False, False): Branch.NEITHER,
}
COMPARISONS = [(e, t, False) for e in ("ex1", "ex2", "sq") for t in TheoremId]
COMPARISONS += [("sq", t, True) for t in TheoremId]


@pytest.mark.parametrize(
    "example, theorem, square",
    COMPARISONS,
    ids=[f"{e}-{t.value}{'-square' if sq else ''}" for e, t, sq in COMPARISONS],
)
def test_compare_verdicts_match_the_exact_ones(example, theorem, square):
    signs, observed = _exact_comparison(example)
    d1, d2 = (make_pds(*_read(example, k)) for k in (1, 2))
    report = compare(theorem, d1, d2, square_corollary=square)
    for v in report.hypothesis_verdicts:
        assert v.passed == signs[v.label], v.label
    branch = _BRANCHES[signs["P1^+ R1 >= P2^+ R2"], signs["P1^+ S1 >= P2^+ S2"]]
    assert report.branch_used is branch
    required = [signs[v.label] for v in report.hypothesis_verdicts if v.label not in _NOT_REQUIRED]
    assert report.conclusion_predicted == (all(required) and branch is not Branch.NEITHER)
    assert report.conclusion_observed == observed
