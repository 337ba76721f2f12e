"""Checks of the benchmark's own machinery: the correctness gates, failure
counting in the loop, the tracer, and the latency statistics.

Run from the root of the repository with ``python3 -m pytest -q perfbench``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import loop  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from propersplit import core, double, solvers  # noqa: E402


@pytest.fixture(scope="module")
def convergent():
    return workloads.make_solve_case(np.random.default_rng(0), 8, 6, 3, 0.6, 2)


@pytest.fixture(scope="module")
def divergent():
    return workloads.make_solve_case(np.random.default_rng(1), 8, 6, 3, 1.05, 2)


def _solve_workload():
    return workloads.Workload("test", None, workloads.op_solve, workloads.gate_solve)


def test_gate_passes_correct_results(convergent, divergent):
    for case in (convergent, divergent):
        assert workloads.gate_solve(case, workloads.op_solve(case)) == []


def test_gate_rejects_perturbed_limit(convergent):
    report, traces = workloads.op_solve(convergent)
    bad = dataclasses.replace(traces[0], limit=traces[0].limit * (1 + 1e-4))
    problems = workloads.gate_solve(convergent, (report, [bad] + traces[1:]))
    assert len(problems) == 1 and "pinv(A) b" in problems[0]


def test_gate_rejects_flipped_verdicts(convergent, divergent):
    report, traces = workloads.op_solve(convergent)
    flipped = dataclasses.replace(report, converges=False)
    assert workloads.gate_solve(convergent, (flipped, traces))

    report, traces = workloads.op_solve(divergent)
    assert workloads.gate_solve(divergent, (dataclasses.replace(report, converges=True), traces))
    calm = [dataclasses.replace(t, diverged=False) for t in traces]
    assert workloads.gate_solve(divergent, (report, calm))


def test_corrupted_solver_result_counts_as_failed_op(convergent, monkeypatch):
    real = solvers.solve_double

    def corrupted(d, b, **kwargs):
        trace = real(d, b, **kwargs)
        return dataclasses.replace(trace, limit=trace.limit + 1e-3)

    monkeypatch.setattr(solvers, "solve_double", corrupted)
    res = loop.run_loop(_solve_workload(), [convergent], 0.05)
    assert res.attempted >= 2
    assert res.failed == res.attempted
    assert res.problems


def test_raising_op_counts_as_failed_op(convergent):
    def boom(case):
        raise FloatingPointError("injected")

    wl = workloads.Workload("test", None, boom, workloads.gate_solve)
    res = loop.run_loop(wl, [convergent], 0.02)
    assert res.failed == res.attempted >= 2
    assert "injected" in res.problems[0]


def _compare_doc(**overrides):
    doc = {"conclusion_predicted": True, "conclusion_observed": True, "rho1": 0.5, "rho2": 0.7}
    doc.update(overrides)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "result",
    [
        (2, None),
        (0, None),
        (0, "not json"),
        (0, _compare_doc(conclusion_observed=False)),
        (0, _compare_doc(conclusion_predicted=None)),
        (0, _compare_doc(rho1=0.5001)),
    ],
)
def test_compare_gate_rejects(result):
    case = workloads.CompareCase("weak-vs-weak", (), "", 0.5, 0.7)
    assert workloads.gate_compare_cli(case, (0, _compare_doc())) == []
    assert workloads.gate_compare_cli(case, result)


def test_compare_cli_op_passes_gate(tmp_path):
    cases = workloads.setup_compare_cli(3, tmp_path)
    case = cases[0]
    assert workloads.gate_compare_cli(case, workloads.op_compare_cli(case)) == []
    assert not Path(case.out).exists()


def test_tracer_nests_spans_and_restores_modules(convergent):
    original = core.pinv
    tracer = tracing.Tracer()
    with tracer.installed():
        assert double.pinv is not original and solvers.pinv is double.pinv
        with tracer.span("op"):
            workloads.op_solve(convergent)
    assert double.pinv is original and solvers.pinv is original

    names = [s.name for s in tracer.spans]
    assert names[0] == "op" and names.count("solvers.solve_double") == 2
    for span in tracer.spans[1:]:
        parent = tracer.spans[span.parent]
        assert parent.start <= span.start <= span.end <= parent.end
    totals = tracing.layer_totals(tracer.spans, {tracer.op})
    assert totals["solvers.solve_double"]["iterations"] > 0
    assert totals["core.pinv"]["calls"] == names.count("core.pinv")
    own = tracing.self_times(tracer.spans)
    assert all(t >= 0.0 for t in own)
    assert sum(own) == pytest.approx(tracer.spans[0].end - tracer.spans[0].start)


def test_self_time_subtracts_children():
    spans = [
        tracing.Span(0, "op", 0.0, 10.0, -1),
        tracing.Span(0, "a", 1.0, 4.0, 0),
        tracing.Span(0, "b", 2.0, 3.0, 1),
        tracing.Span(0, "c", 5.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_tail_keeps_ten_samples_beyond():
    value, pct, beyond = loop.tail([float(x) for x in range(1, 31)])
    assert (value, beyond) == (20.0, 10) and pct == pytest.approx(100 * 20 / 30)
    assert loop.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_complete_cycles():
    assert loop.complete_cycles(7, 3) == {0, 1, 2, 3, 4, 5}
    assert loop.complete_cycles(2, 3) == {0, 1}


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
