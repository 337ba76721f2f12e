"""In-memory spans around calls into propersplit's public functions.

The tracer records spans from outside the program: while installed, it
replaces each traced function, in every ``propersplit`` module that binds
it, by a wrapper that opens a span, calls the original and closes the span.
A module that calls ``pinv`` through its own global name therefore hits the
wrapper, so calls made inside the library are seen too.  Leaving the
``installed()`` block puts the originals back, so untraced ops run the
program's own code with no wrapper in the way.

Spans stay in memory and are written out once, by :meth:`Tracer.dump`.
Each span has the op it belongs to, a name, start and end times from
``perf_counter``, the index of its parent span (-1 for an op's root span)
and optional counters taken at the same boundary.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from time import perf_counter

PACKAGE = "propersplit"


def _solve_counts(args, kwargs, trace) -> dict:
    # iterate bytes are computed from the trace's shape, not measured
    iterates = getattr(trace, "iterates", None) or ()
    return {
        "iterations": trace.iterations_used,
        "iterate_bytes": len(iterates) * trace.limit.size * 8,
    }


def _read_counts(args, kwargs, matrix) -> dict:
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# (module, function, counters taken from the call's arguments and result)
TARGETS = (
    ("core", "pinv", None),
    ("core", "spectral_radius", None),
    ("double", "make_pds", None),
    ("double", "classify_double", None),
    ("double", "iteration_matrix", None),
    ("double", "check_convergence", None),
    ("solvers", "solve_double", _solve_counts),
    ("comparison", "compare", None),
    ("matrixfile", "read_matrix", _read_counts),
    ("cli", "main", None),
)


@dataclass
class Span:
    op: int
    name: str
    start: float
    end: float
    parent: int
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans for the ops run while it is installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        span = Span(self.op, name, perf_counter(), 0.0, parent)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every module binding a traced function; restore on exit."""
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        patched = []
        try:
            for home, fname, counts in TARGETS:
                original = getattr(sys.modules[f"{PACKAGE}.{home}"], fname)
                wrapper = self._wrap(f"{home}.{fname}", original, counts)
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        setattr(mod, fname, wrapper)
                        patched.append((mod, fname, original))
            yield
        finally:
            for mod, fname, original in reversed(patched):
                setattr(mod, fname, original)

    def dump(self, path, header: dict) -> None:
        doc = dict(header)
        doc["spans"] = [asdict(s) for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest strictly, so children never overlap
    one another and their durations add up to the time they cover.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def layer_totals(spans: list[Span], ops: set[int]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy and self seconds, and summed counters,
    over the spans of the given ops."""
    totals: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        if span.op not in ops:
            continue
        t = totals.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["busy_s"] += span.end - span.start
        t["self_s"] += own
        for key, value in span.counts.items():
            t[key] = t.get(key, 0) + value
    return totals
