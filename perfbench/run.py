"""propersplit benchmark: run one workload and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload pipeline-large --seed 1 --seconds 35 --trace 0

Workloads: ``pipeline-large``, ``solve-small`` and ``compare-cli`` (see
``workloads.py`` and ``README.md``).  Set-up draws the inputs from
``--seed`` and runs at least ``SETUP_REPEATS`` times and for at least
``SETUP_MIN_SECONDS``; ``setup_s`` is the median.  The
loop then runs ops for ``--seconds`` seconds.  With ``--trace 0`` the final
line carries the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced run, and the spans are written to
``.perfbench_out/``.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the script exits with status 2 and prints no result.
"""

import os

# BLAS reads these once, when numpy loads: pin one thread before any import
# of numpy, so each run is single-threaded whatever the machine offers.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "propersplit"
OUT_DIR = ROOT / ".perfbench_out"
# Co-tenant load on a shared host comes in phases lasting seconds, so a
# set-up that takes milliseconds would time one phase only: repeat it for
# at least SETUP_MIN_SECONDS so that its median mixes phases.
SETUP_REPEATS = 5
SETUP_MIN_SECONDS = 3.0

PRINTED_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "failed_ratio": "",
    "peak_rss_mb": "MB",
}
# The JSON result carries, and BENCHMARK.json bounds, only these.  The
# others move with co-tenant load on a shared host by more than any useful
# bound (see README.md).
END_TO_END_UNITS = {name: PRINTED_UNITS[name] for name in ("setup_s", "op_tail_s", "peak_rss_mb")}

# name -> (unit, traced layer, total to read); per-op means over whole cycles
PER_LAYER_SOURCES = {
    "core.pinv.calls": ("count/op", "core.pinv", "calls"),
    "core.pinv.busy_s": ("s/op", "core.pinv", "busy_s"),
    "core.spectral_radius.calls": ("count/op", "core.spectral_radius", "calls"),
    "core.spectral_radius.busy_s": ("s/op", "core.spectral_radius", "busy_s"),
    "double.make_pds.busy_s": ("s/op", "double.make_pds", "busy_s"),
    "double.classify_double.busy_s": ("s/op", "double.classify_double", "busy_s"),
    "double.iteration_matrix.busy_s": ("s/op", "double.iteration_matrix", "busy_s"),
    "double.check_convergence.busy_s": ("s/op", "double.check_convergence", "busy_s"),
    "double.check_convergence.self_s": ("s/op", "double.check_convergence", "self_s"),
    "solvers.solve_double.busy_s": ("s/op", "solvers.solve_double", "busy_s"),
    "solvers.iterations": ("count/op", "solvers.solve_double", "iterations"),
    "solvers.iterate_bytes": ("computed_B/op", "solvers.solve_double", "iterate_bytes"),
    "comparison.compare.busy_s": ("s/op", "comparison.compare", "busy_s"),
    "comparison.compare.self_s": ("s/op", "comparison.compare", "self_s"),
    "matrixfile.read_matrix.busy_s": ("s/op", "matrixfile.read_matrix", "busy_s"),
    "matrixfile.read_matrix.bytes": ("B/op", "matrixfile.read_matrix", "bytes"),
    "cli.main.self_s": ("s/op", "cli.main", "self_s"),
}
# metrics derived from two sources
PER_LAYER_UNITS = {
    **{name: unit for name, (unit, _, _) in PER_LAYER_SOURCES.items()},
    "solvers.iter_us": "us/iter",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _blas(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '')}".strip()


def environment(args, np) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(np),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def end_to_end(setup_times, res, loop) -> tuple[dict, list[str]]:
    tail_value, pct, beyond = loop.tail(res.plain)
    values = {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(res.plain),
        "op_tail_s": tail_value,
        "ops_per_s": len(res.plain) / res.elapsed,
        "failed_ratio": res.failed / res.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "op_p50_s": f"n={len(res.plain)}",
        "op_tail_s": f"p{pct:.1f}, {beyond} of {len(res.plain)} samples beyond",
        "ops_per_s": f"{len(res.plain)} ops in {res.elapsed:.3f} s",
        "failed_ratio": f"{res.failed} of {res.attempted} ops, warm-up included",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    lines = [
        f"{name:<16} {values[name]:.6g} {unit}".rstrip() + f"  ({notes[name]})"
        for name, unit in PRINTED_UNITS.items()
    ]
    return {n: {"value": values[n], "unit": u} for n, u in END_TO_END_UNITS.items()}, lines


def per_layer(res, tracer, n_cases, loop, tracing) -> tuple[dict, list[str]]:
    ops = loop.complete_cycles(res.rounds, n_cases)
    totals = tracing.layer_totals(tracer.spans, ops)
    n_ops = max(len(ops), 1)
    values = {
        name: totals.get(layer, {}).get(key, 0) / n_ops
        for name, (_, layer, key) in PER_LAYER_SOURCES.items()
    }
    iterations = values["solvers.iterations"]
    values["solvers.iter_us"] = (
        1e6 * values["solvers.solve_double.busy_s"] / iterations if iterations else 0.0
    )
    values["trace.overhead_ratio"] = statistics.median(res.traced) / statistics.median(res.plain)
    lines = [
        f"per-layer means over {len(ops)} traced ops"
        f" ({len(ops) // n_cases} whole passes over {n_cases} cases)"
    ]
    lines += [f"{name:<34} {values[name]:.6g} {PER_LAYER_UNITS[name]}" for name in PER_LAYER_UNITS]
    return {n: {"value": values[n], "unit": PER_LAYER_UNITS[n]} for n in PER_LAYER_UNITS}, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no propersplit sources at {PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import propersplit

    if Path(propersplit.__file__).resolve().parent != PACKAGE:
        print(f"error: imported propersplit from {propersplit.__file__}", file=sys.stderr)
        return 2
    import loop
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    try:
        setup_times = []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
            t0 = perf_counter()
            cases = workload.setup(args.seed, workdir)
            setup_times.append(perf_counter() - t0)
        res = loop.run_loop(workload, cases, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args, np)
    print("env " + json.dumps(env))
    if tracer is None:
        metrics, lines = end_to_end(setup_times, res, loop)
    else:
        metrics, lines = per_layer(res, tracer, len(cases), loop, tracing)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans_path, {"env": env})
        lines.append(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    for problem in res.problems:
        lines.append(f"FAILED {problem}")
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": res.failed == 0,
                "attempted": res.attempted,
                "failed": res.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
