"""The three benchmark workloads: set-up, the timed op, and the correctness gate.

Each workload is a closed loop with one client: the next op starts when the
previous one has returned.  Set-up draws every input from the seed and keeps
it as raw arrays (or, for the CLI, as matrix files), so construction of the
program's own objects (``make_pds``, ``read_matrix``) happens inside the
timed op.  Reference answers are computed in set-up with numpy alone,
independently of ``propersplit.core``.

A gate returns a list of problems; an empty list means the op's result is
correct.  A failing gate or an exception counts the op as failed; the run
goes on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from propersplit import cli, double, generators, matrixfile, solvers
from propersplit.comparison import TheoremId

# Relative distance allowed between a solver limit and numpy's pinv(A) @ b.
# The solver stops at a step of 1e-10 with a geometric-tail guard, so a
# correct limit is far inside this.
LIMIT_RTOL = 1e-7
# Relative distance allowed between a reported rho(W) and numpy's eigvals of
# the companion assembled from numpy's pinv.  The Perron root of these
# nonnegative companions is well conditioned.
RHO_RTOL = 1e-6
# numpy pinv cutoff: the generated frames keep singular values within a few
# orders of magnitude of the largest, and rounding sits near 1e-15.
NUMPY_RCOND = 1e-10
# the CLI's theorem arguments, as documented in the README
THEOREMS = {
    "regular-vs-weak": TheoremId.REGULAR_VS_WEAK,
    "weak-vs-regular": TheoremId.WEAK_VS_REGULAR,
    "weak-vs-weak": TheoremId.WEAK_VS_WEAK,
}


@dataclass(frozen=True)
class SolveCase:
    """Raw arrays of one double splitting, its right-hand sides, and the
    expected verdict with numpy's ``pinv(A) @ b`` for each right-hand side."""

    a: np.ndarray
    p: np.ndarray
    r: np.ndarray
    s: np.ndarray
    rhs: tuple[np.ndarray, ...]
    refs: tuple[np.ndarray, ...]
    convergent: bool


@dataclass(frozen=True)
class CompareCase:
    """CLI arguments of one comparison and numpy's rho(W1), rho(W2)."""

    theorem: str
    files: tuple[str, ...]
    out: str
    rho1: float
    rho2: float


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path], list]
    op: Callable
    gate: Callable[[object, object], list[str]]


def _is(value, expected: bool) -> bool:
    return isinstance(value, (bool, np.bool_)) and bool(value) is expected


def make_solve_case(rng, m, n, rank, rho, n_rhs) -> SolveCase:
    d = generators.weak_regular_double(rng, m, n, rank, rho, nullspace_mix=0.3)
    a_pinv = np.linalg.pinv(d.a, rcond=NUMPY_RCOND)
    rhs = tuple(rng.uniform(0.5, 1.5, m) for _ in range(n_rhs))
    return SolveCase(
        a=np.array(d.a),
        p=np.array(d.p),
        r=np.array(d.r),
        s=np.array(d.s),
        rhs=rhs,
        refs=tuple(a_pinv @ b for b in rhs),
        convergent=rho < 1.0,
    )


def setup_pipeline_large(seed: int, workdir: Path) -> list[SolveCase]:
    # n=240 keeps the 2n x 2n eigensolve and the SVDs dominant, while an op
    # (about 0.35 s) leaves enough samples for a steady tail; at n=400 an op
    # took 0.8 s and the tail of a 35-second run sat at p70
    rng = np.random.default_rng(seed)
    return [make_solve_case(rng, 300, 240, 120, 0.95, 1) for _ in range(3)]


def setup_solve_small(seed: int, workdir: Path) -> list[SolveCase]:
    # three in four instances converge slowly (rho 0.99), the fourth diverges
    rng = np.random.default_rng(seed)
    rhos = (0.99, 0.99, 0.99, 1.05) * 2
    return [make_solve_case(rng, 50, 40, 20, rho, 4) for rho in rhos]


def op_solve(case: SolveCase):
    d = double.make_pds(case.a, case.p, case.r, case.s)
    report = double.check_convergence(d)
    traces = [solvers.solve_double(d, b) for b in case.rhs]
    return report, traces


def gate_solve(case: SolveCase, result) -> list[str]:
    report, traces = result
    problems = []
    if len(traces) != len(case.rhs):
        problems.append(f"{len(traces)} traces for {len(case.rhs)} right-hand sides")
    if case.convergent:
        for name in ("converges", "biconditional_agrees", "guaranteed_convergent"):
            value = getattr(report, name)
            if not _is(value, True):
                problems.append(f"report.{name} is {value!r}, expected True")
        for k, (trace, ref) in enumerate(zip(traces, case.refs)):
            if not _is(trace.converged, True):
                problems.append(f"rhs {k}: trace.converged is {trace.converged!r}")
            err = np.linalg.norm(trace.limit - ref) / np.linalg.norm(ref)
            if not err <= LIMIT_RTOL:
                problems.append(f"rhs {k}: |limit - pinv(A) b| / |pinv(A) b| = {err:.3g}")
    else:
        if not _is(report.converges, False):
            problems.append(f"report.converges is {report.converges!r}, expected False")
        for k, trace in enumerate(traces):
            if not _is(trace.diverged, True):
                problems.append(f"rhs {k}: trace.diverged is {trace.diverged!r}, expected True")
    return problems


def _numpy_rho(d) -> float:
    p_pinv = np.linalg.pinv(d.p, rcond=NUMPY_RCOND)
    n = d.p.shape[1]
    w = np.block([[p_pinv @ d.r, -(p_pinv @ d.s)], [np.eye(n), np.zeros((n, n))]])
    return float(np.max(np.abs(np.linalg.eigvals(w))))


def setup_compare_cli(seed: int, workdir: Path) -> list[CompareCase]:
    rng = np.random.default_rng(seed)
    names = list(THEOREMS)
    cases = []
    for i in range(len(names)):
        theorem = names[i % len(names)]
        d1, d2 = generators.comparison_pair(rng, THEOREMS[theorem], 150, 120, 60)
        mats = {"a": d1.a, "p1": d1.p, "r1": d1.r, "s1": d1.s, "p2": d2.p, "r2": d2.r, "s2": d2.s}
        files = []
        for label, mat in mats.items():
            path = workdir / f"pair{i}_{label}.mat"
            path.write_text(matrixfile.format_matrix(mat), encoding="utf-8")
            files.append(str(path))
        out = str(workdir / f"pair{i}_report.json")
        cases.append(CompareCase(theorem, tuple(files), out, _numpy_rho(d1), _numpy_rho(d2)))
    return cases


def op_compare_cli(case: CompareCase):
    out = Path(case.out)
    code = cli.main(["compare", case.theorem, *case.files, "--format", "json", "--out", case.out])
    text = out.read_text(encoding="utf-8") if out.exists() else None
    out.unlink(missing_ok=True)
    return code, text


def gate_compare_cli(case: CompareCase, result) -> list[str]:
    code, text = result
    if code != 0:
        return [f"exit code {code}"]
    if text is None:
        return ["no report written"]
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    for name in ("conclusion_predicted", "conclusion_observed"):
        if doc.get(name) is not True:
            problems.append(f"{name} is {doc.get(name)!r}, expected true")
    for name, ref in (("rho1", case.rho1), ("rho2", case.rho2)):
        value = doc.get(name)
        if not isinstance(value, (int, float)) or not abs(value - ref) <= RHO_RTOL * max(1.0, ref):
            problems.append(f"{name} is {value!r}, numpy gives {ref!r}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pipeline-large", setup_pipeline_large, op_solve, gate_solve),
        Workload("solve-small", setup_solve_small, op_solve, gate_solve),
        Workload("compare-cli", setup_compare_cli, op_compare_cli, gate_compare_cli),
    )
}
