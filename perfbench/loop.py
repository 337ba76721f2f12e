"""Closed-loop driver and latency statistics.

One client runs ops back to back for a fixed wall time.  Every op goes
through its workload's gate; an op that raises or fails the gate is counted
in ``failed`` and the loop goes on.  With a tracer, each round runs the same
case once untraced and once traced, alternating which goes first, so the two
latency samples see the same inputs and ``traced / untraced`` measures the
tracing overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

MAX_PROBLEMS_KEPT = 5


@dataclass
class LoopResult:
    plain: list[float] = field(default_factory=list)
    traced: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    rounds: int = 0
    elapsed: float = 0.0


def _run_op(workload, case, result: LoopResult, tracer, op_id: int) -> float:
    """Run one op, gate it, and return its latency in seconds."""
    result.attempted += 1
    t0 = perf_counter()
    try:
        if tracer is None:
            out = workload.op(case)
            dt = perf_counter() - t0
        else:
            tracer.op = op_id
            with tracer.installed(), tracer.span("op") as span:
                out = workload.op(case)
            dt = span.end - span.start
        problems = workload.gate(case, out)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        dt = perf_counter() - t0
        problems = [f"raised {type(exc).__name__}: {exc}"]
    if problems:
        result.failed += 1
        if len(result.problems) < MAX_PROBLEMS_KEPT:
            result.problems.append(f"op {op_id}: " + "; ".join(problems))
    return dt


def run_loop(workload, cases, seconds: float, tracer=None) -> LoopResult:
    """Warm up on the first case, then cycle through ``cases`` for ``seconds``."""
    result = LoopResult()
    _run_op(workload, cases[0], result, None, -1)
    start = perf_counter()
    i = 0
    while perf_counter() - start < seconds:
        case = cases[i % len(cases)]
        if tracer is None:
            result.plain.append(_run_op(workload, case, result, None, i))
        else:
            for traced in (False, True) if i % 2 == 0 else (True, False):
                dt = _run_op(workload, case, result, tracer if traced else None, i)
                (result.traced if traced else result.plain).append(dt)
        i += 1
    result.elapsed = perf_counter() - start
    result.rounds = i
    return result


def complete_cycles(rounds: int, n_cases: int) -> set[int]:
    """Rounds that form whole passes over the cases, so per-op counts repeat
    exactly for one seed; all rounds if not even one pass finished."""
    whole = rounds - rounds % n_cases
    return set(range(whole if whole else rounds))


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest order statistic with at least ten samples above it.

    Returns ``(value, percentile, samples_beyond)``.  With fewer than eleven
    samples no such statistic exists and the maximum is returned with the
    number of samples beyond it, zero.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k
