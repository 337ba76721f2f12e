"""Shared fixtures: the two bundled regression examples and a default config.

Example 1 pairs a regular double splitting with a weak regular one whose
entrywise ordering hypotheses all fail while the spectral radius ordering
still holds (a converse failure).  Example 2 satisfies every hypothesis of
the weak-vs-regular comparison.  Expected values that are not forced by the
matrices themselves were recomputed independently; see the notes next to the
constants.
"""

import numpy as np
import pytest

from propersplit import DEFAULT_TOLERANCES, make_pds


@pytest.fixture(scope="session")
def cfg():
    return DEFAULT_TOLERANCES


@pytest.fixture
def count_svds(monkeypatch):
    """``count_svds(thunk)`` runs thunk and returns how many times it called
    ``np.linalg.svd``, the one factorization behind every pseudoinverse."""
    calls = []
    real = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)

    def count(thunk) -> int:
        before = len(calls)
        thunk()
        return len(calls) - before

    return count


class Example1:
    """2x3 rank-2 matrix with one regular and one weak regular double splitting."""

    a = np.array([[3.0, -2.0, 0.0], [-1.0, 1.0, 0.0]])
    p1 = np.array([[5.0, -1.0, 0.0], [0.0, 1.0, 0.0]])
    r1 = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    s1 = np.array([[-1.0, -1.0, 0.0], [-1.0, 0.0, 0.0]])
    p2 = np.array([[3.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    r2 = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    s2 = np.array([[0.0, -1.0, 0.0], [-1.0, 0.0, 0.0]])

    a_pinv = np.array([[1.0, 2.0], [1.0, 3.0], [0.0, 0.0]])  # exact, A has full row rank
    p1_pinv = np.array([[1.0, 1.0], [0.0, 5.0], [0.0, 0.0]]) / 5.0
    p1r1 = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]) / 5.0
    p1s1 = np.array([[-2.0, -1.0, 0.0], [-5.0, 0.0, 0.0], [0.0, 0.0, 0.0]]) / 5.0
    p2_pinv = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]]) / 6.0
    p2r2 = np.array([[0.0, 2.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 0.0]]) / 6.0
    p2s2 = np.array([[0.0, -2.0, 0.0], [-3.0, 0.0, 0.0], [0.0, 0.0, 0.0]]) / 6.0

    rho_w1 = 0.9079  # quoted to 4 digits; tolerance 5e-4
    rho_w2 = 0.9158


class Example2:
    """2x3 rank-2 matrix whose two double splittings satisfy the ordering hypotheses.

    The quoted spectral radius pair for this example is (0.7676, 0.6660) with
    the ordering claim rho(W1) <= rho(W2), which 0.6660 contradicts.  Direct
    recomputation diagonalizes both companion matrices over the invariant
    directions (1,0,1), (0,1,0), (1,0,-1) and gives the closed forms below:
    rho(W1) = (1+sqrt(13))/6 = 0.76759... (matching 0.7676) and
    rho(W2) = sqrt(3)/2 = 0.86602..., so the quoted 0.6660 is a transcription
    error for 0.8660 and the ordering does hold.
    """

    a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    p1 = np.array([[3.0, 0.0, 3.0], [0.0, 3.0, 0.0]])
    r1 = np.array([[2.0, 0.0, 2.0], [0.0, 1.0, 0.0]])
    s1 = np.array([[0.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    p2 = np.array([[4.0, 0.0, 4.0], [0.0, 4.0, 0.0]])
    r2 = np.array([[2.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
    s2 = np.array([[-1.0, 0.0, -1.0], [0.0, -3.0, 0.0]])

    a_pinv = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 0.0]]) / 2.0
    p1_pinv = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 0.0]]) / 6.0
    p1r1 = np.array([[2.0, 0.0, 2.0], [0.0, 2.0, 0.0], [2.0, 0.0, 2.0]]) / 6.0
    p1s1 = np.array([[0.0, 0.0, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, 0.0]]) / 6.0
    p2_pinv = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 0.0]]) / 8.0
    p2r2 = np.array([[2.0, 0.0, 2.0], [0.0, 0.0, 0.0], [2.0, 0.0, 2.0]]) / 8.0
    p2s2 = np.array([[-1.0, 0.0, -1.0], [0.0, -6.0, 0.0], [-1.0, 0.0, -1.0]]) / 8.0

    rho_w1 = (1.0 + np.sqrt(13.0)) / 6.0  # recomputed closed form
    rho_w2 = np.sqrt(3.0) / 2.0           # recomputed closed form


@pytest.fixture(scope="session")
def ex1():
    return Example1


@pytest.fixture(scope="session")
def ex2():
    return Example2


@pytest.fixture(scope="session")
def ex1_splittings(cfg):
    d1 = make_pds(Example1.a, Example1.p1, Example1.r1, Example1.s1, cfg)
    d2 = make_pds(Example1.a, Example1.p2, Example1.r2, Example1.s2, cfg)
    return d1, d2


@pytest.fixture(scope="session")
def ex2_splittings(cfg):
    d1 = make_pds(Example2.a, Example2.p1, Example2.r1, Example2.s1, cfg)
    d2 = make_pds(Example2.a, Example2.p2, Example2.r2, Example2.s2, cfg)
    return d1, d2
