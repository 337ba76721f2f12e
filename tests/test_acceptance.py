"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` for one line per criterion,
or add ``-s`` to see the explicit ACCEPTANCE n: PASS prints.  Every tolerance
is pinned here; nothing is deferred to later calibration.
"""

import time

import numpy as np
import pytest
from numpy.random import default_rng

from propersplit import (
    TheoremId,
    ToleranceConfig,
    check_semimonotone_equivalence,
    companion_from_blocks,
    compare,
    is_nonneg,
    iteration_matrix,
    min_norm_lsq,
    penrose_residuals,
    pinv,
    solve_double,
    spectral_radius,
)
from propersplit.generators import (
    comparison_pair,
    nonneg_block_pair,
    rank_deficient_matrix,
    weak_regular_double,
    weak_regular_single,
    weak_regular_single_square,
)
from propersplit.matrixfile import format_matrix

SOLVE_TOL = 1e-10  # default ToleranceConfig.solve_tol, pinned for criterion 4


def _stopwatch(limit):
    start = time.perf_counter()

    def check(tag):
        elapsed = time.perf_counter() - start
        assert elapsed < limit, f"{tag} took {elapsed:.2f}s, limit {limit}s"
        return elapsed

    return check


def test_criterion_1_first_example_regression(ex1, ex1_splittings):
    done = _stopwatch(1.0)
    assert np.max(np.abs(pinv(ex1.p1) - ex1.p1_pinv)) <= 1e-9
    p1i = pinv(ex1.p1)
    p2i = pinv(ex1.p2)
    assert np.max(np.abs(p1i @ ex1.r1 - ex1.p1r1)) <= 1e-9
    assert np.max(np.abs(p1i @ ex1.s1 - ex1.p1s1)) <= 1e-9
    assert np.max(np.abs(p2i - ex1.p2_pinv)) <= 1e-9
    assert np.max(np.abs(p2i @ ex1.r2 - ex1.p2r2)) <= 1e-9
    assert np.max(np.abs(p2i @ ex1.s2 - ex1.p2s2)) <= 1e-9
    rho1 = spectral_radius(iteration_matrix(ex1_splittings[0]))
    rho2 = spectral_radius(iteration_matrix(ex1_splittings[1]))
    assert abs(rho1 - 0.9079) <= 5e-4
    assert abs(rho2 - 0.9158) <= 5e-4
    assert rho1 <= rho2 < 1.0
    done("criterion 1")
    print("ACCEPTANCE 1 [first example regression]: PASS")


def test_criterion_2_second_example_regression(ex2, ex2_splittings):
    done = _stopwatch(1.0)
    assert np.max(np.abs(pinv(ex2.a) - ex2.a_pinv)) <= 1e-9
    p1i = pinv(ex2.p1)
    p2i = pinv(ex2.p2)
    assert np.max(np.abs(p1i - ex2.p1_pinv)) <= 1e-9
    assert np.max(np.abs(p1i @ ex2.r1 - ex2.p1r1)) <= 1e-9
    assert np.max(np.abs(p1i @ ex2.s1 - ex2.p1s1)) <= 1e-9
    assert np.max(np.abs(p2i - ex2.p2_pinv)) <= 1e-9
    assert np.max(np.abs(p2i @ ex2.r2 - ex2.p2r2)) <= 1e-9
    assert np.max(np.abs(p2i @ ex2.s2 - ex2.p2s2)) <= 1e-9

    rho1 = spectral_radius(iteration_matrix(ex2_splittings[0]))
    rho2 = spectral_radius(iteration_matrix(ex2_splittings[1]))
    assert rho2 < 1.0
    # recomputed values, frozen as closed forms (see conftest Example2 notes):
    # the quoted pair (0.7676, 0.6660) contradicts its own ordering; 0.6660 is
    # a transcription error for sqrt(3)/2 = 0.8660
    assert abs(rho1 - (1.0 + np.sqrt(13.0)) / 6.0) <= 1e-9
    assert abs(rho2 - np.sqrt(3.0) / 2.0) <= 1e-9
    assert abs(rho1 - 0.7676) <= 5e-4          # the quoted rho(W1) is accurate
    assert abs(rho2 - 0.6660) > 5e-2           # the quoted rho(W2) is not
    assert abs(rho2 - 0.8660) <= 5e-4          # its transposition is
    assert rho1 <= rho2

    rep = compare(TheoremId.WEAK_VS_REGULAR, *ex2_splittings)
    expected_true = {
        "e in range(A)",
        "A^+ >= 0",
        "splitting 1 weak regular",
        "splitting 2 regular",
        "P2^+ has no zero row",
        "P2 P2^+ >= 0",
        "P1^+ >= P2^+",
        "P1^+ R1 >= P2^+ R2",
    }
    table = {v.label: v.passed for v in rep.hypothesis_verdicts}
    for label in expected_true:
        assert table[label], f"hypothesis {label} expected to hold"
    assert rep.conclusion_predicted and rep.conclusion_observed
    done("criterion 2")
    print("ACCEPTANCE 2 [second example regression, recomputed radii]: PASS")


def test_criterion_3_penrose_suite():
    done = _stopwatch(10.0)
    rng = default_rng(1003)
    for k in range(500):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        rank = int(rng.integers(0, min(m, n) + 1)) if k % 10 else (k // 10) % (min(m, n) + 1)
        a = rank_deficient_matrix(rng, m, n, rank)
        x = pinv(a)
        bound = 1e-9 * (1.0 + np.linalg.norm(a))
        residuals = penrose_residuals(a, x)
        assert all(r <= bound for r in residuals), (m, n, rank, residuals)
        assert np.max(np.abs(pinv(x) - a)) <= 1e-8 * (1.0 + np.linalg.norm(a))
    done("criterion 3")
    print("ACCEPTANCE 3 [penrose suite, 500 matrices]: PASS")


def _convergent_suite(count=200, seed=1004):
    rng = default_rng(seed)
    out = []
    for _ in range(count):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        rank = int(rng.integers(1, min(m, n) + 1))
        rho = float(rng.uniform(0.05, 0.95))
        mix = 0.4 if rng.uniform() < 0.5 else 0.0
        out.append(weak_regular_double(rng, m, n, rank, rho=rho, nullspace_mix=mix))
    return rng, out


def test_criterion_4_convergence_theorem_suite():
    done = _stopwatch(60.0)
    rng, suite = _convergent_suite()
    for d in suite:
        assert is_nonneg(pinv(d.a)), "generated A must be semi-monotone"
        rho_w = spectral_radius(iteration_matrix(d))
        assert rho_w < 1.0, f"rho(W) = {rho_w} not below 1"
        b = d.a @ rng.standard_normal(d.a.shape[1])  # b in range(A)
        trace = solve_double(d, b)
        ref = min_norm_lsq(d.a, b)
        assert trace.converged
        assert trace.distance_to_reference <= 10.0 * SOLVE_TOL * (1.0 + np.linalg.norm(ref))
    done("criterion 4")
    print("ACCEPTANCE 4 [convergence theorem suite, 200 splittings]: PASS")


def test_criterion_5_biconditional_suite():
    done = _stopwatch(60.0)
    rng, suite = _convergent_suite()
    for _ in range(50):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        rank = int(rng.integers(1, min(m, n) + 1))
        rho = float(rng.uniform(1.05, 1.6))
        suite.append(weak_regular_double(rng, m, n, rank, rho=rho))
    band = 1e-8
    for d in suite:
        rho_w = spectral_radius(iteration_matrix(d))
        rho_ind = spectral_radius(pinv(d.p) @ (d.r - d.s))
        if abs(rho_w - 1.0) <= band or abs(rho_ind - 1.0) <= band:
            continue
        assert (rho_w < 1.0) == (rho_ind < 1.0), (rho_w, rho_ind)
    done("criterion 5")
    print("ACCEPTANCE 5 [biconditional suite, 250 splittings]: PASS")


def _dump(d1, d2):
    return "\n".join(
        [
            "counterexample matrices:",
            "A:", format_matrix(d1.a),
            "P1:", format_matrix(d1.p), "R1:", format_matrix(d1.r), "S1:", format_matrix(d1.s),
            "P2:", format_matrix(d2.p), "R2:", format_matrix(d2.r), "S2:", format_matrix(d2.s),
        ]
    )


def test_criterion_6_comparison_soundness_sweep():
    done = _stopwatch(120.0)
    rng = default_rng(1006)
    for theorem in TheoremId:
        for _ in range(100):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(2, 6))
            rank = int(rng.integers(1, min(m, n) + 1))
            d1, d2 = comparison_pair(rng, theorem, m, n, rank)
            rep = compare(theorem, d1, d2)
            assert rep.conclusion_predicted, f"{theorem} generator produced a non-instance"
            assert rep.rho1 <= rep.rho2 + 1e-8, (
                f"{theorem.value}: rho1={rep.rho1} > rho2={rep.rho2}\n" + _dump(d1, d2)
            )
            assert rep.rho2 < 1.0, f"{theorem.value}: rho2={rep.rho2} >= 1\n" + _dump(d1, d2)
    done("criterion 6")
    print("ACCEPTANCE 6 [comparison soundness, 100 pairs x 3 theorems]: PASS")


def test_criterion_7_block_lemma_suite():
    done = _stopwatch(60.0)
    rng = default_rng(1007)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        rho = float(rng.uniform(0.05, 0.999))
        b, c = nonneg_block_pair(rng, n, rho)
        w = companion_from_blocks(b, -c)  # [[B, C], [I, 0]]
        assert spectral_radius(w) < 1.0 + 1e-8
    done("criterion 7")
    print("ACCEPTANCE 7 [block lemma suite, 200 instances]: PASS")


def test_criterion_8_companion_equivalence():
    done = _stopwatch(60.0)
    rng = default_rng(1008)
    cfg = ToleranceConfig(solve_tol=0.0, max_iter=100)
    for _ in range(50):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 6))
        rank = int(rng.integers(1, min(m, n) + 1))
        d = weak_regular_double(rng, m, n, rank, rho=float(rng.uniform(0.1, 0.95)))
        b = d.a @ rng.standard_normal(n)
        trace = solve_double(d, b, cfg=cfg, keep_iterates=True)
        w = iteration_matrix(d)
        bvec = np.concatenate([pinv(d.p) @ b, np.zeros(n)])
        state = np.concatenate([trace.iterates[1], trace.iterates[0]])
        # the x-recursion may hit an exact fixed point and stop early; its
        # sequence is constant from there, so compare the held value then
        for k in range(2, 102):
            state = w @ state + bvec
            x_k = trace.iterates[k] if k < len(trace.iterates) else trace.iterates[-1]
            assert np.max(np.abs(state[:n] - x_k)) <= 1e-12
    done("criterion 8")
    print("ACCEPTANCE 8 [companion equivalence, 50 runs x 100 steps]: PASS")


def test_criterion_9_three_way_equivalence():
    done = _stopwatch(60.0)
    rng = default_rng(1009)
    splittings = []
    for i in range(60):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        rank = int(rng.integers(1, min(m, n) + 1))
        rho = float(rng.uniform(0.1, 0.9)) if i % 2 == 0 else float(rng.uniform(1.1, 1.8))
        splittings.append(weak_regular_single(rng, m, n, rank, rho=rho))
    for i in range(40):
        n = int(rng.integers(2, 7))
        rho = float(rng.uniform(0.1, 0.9)) if i % 2 == 0 else float(rng.uniform(1.1, 1.8))
        splittings.append(weak_regular_single_square(rng, n, rho=rho))
    semi_count = 0
    for s in splittings:
        rep = check_semimonotone_equivalence(s)
        assert rep.agree, (rep.a_pinv_nonneg, rep.a_pinv_v_nonneg, rep.iteration_radius)
        semi_count += rep.a_pinv_nonneg
    assert 0 < semi_count < len(splittings), "suite must span both sides"
    done("criterion 9")
    print("ACCEPTANCE 9 [three-way equivalence, 100 splittings]: PASS")
