"""Spans around the public calls of each starspec layer, recorded from outside.

``Tracer.install`` replaces names in the starspec modules that look them up at
call time (``starspec.spectrum.dimension`` and so on) with timing wrappers; no
file under ``src/`` is edited. Every wrapped call keeps a frame on a stack so
that its self time -- its duration minus the time its wrapped children
covered -- can be summed per name. Calls that happen up to a million times
per request (hook dimensions, corner removal, histogram masses, the
partition generator's ``__next__``) are only aggregated as (count, total,
self); the others are also kept as spans (id, parent id, request id, name,
start, end) and written out when the worker ends.

A name that a module no longer has is skipped, so the benchmark keeps working
when a later version of starspec drops it; its metrics then read 0.

The part of a wrapped call that falls outside its own timed interval (entering
the wrapper before the first clock read, the bookkeeping after the second) is
charged to the caller's self time. ``calibrate`` measures that cost per call on
an empty function; ``metrics`` subtracts it from each caller's self time, once
per direct wrapped child, and reports the total as ``trace.wrapper_s``.
"""

from __future__ import annotations

import importlib
from math import factorial
from time import perf_counter

# (module, attribute, span name, kept as a span)
WRAPPED = (
    ("starspec.spectrum", "dimension", "partitions.dimension", False),
    ("starspec.spectrum", "corners", "partitions.corner", False),
    ("starspec.spectrum", "remove_corner", "partitions.corner", False),
    ("starspec.cli", "multiplicity_table", "spectrum.table", True),
    ("starspec.cli", "hook_bound", "spectrum.bound", False),
    ("starspec.cli", "oracle_multiplicity_table", "cayley.oracle", True),
    ("starspec.cli", "closed_walk_counts", "cayley.walk", True),
    ("starspec.cli", "convergence_report", "semicircle.report", True),
    ("starspec.cli", "semicircle_mass", "semicircle.mass", False),
    ("starspec.semicircle", "multiplicity_table", "spectrum.table", True),
    ("starspec.semicircle", "kolmogorov_distance", "semicircle.kolmogorov", True),
    ("starspec.semicircle", "moment_ratio", "semicircle.moment_ratio", True),
    ("starspec.cayley", "closed_walk_counts", "cayley.walk", True),
    ("starspec.cayley", "solve_exact", "cayley.solve", True),
)
ENUMERATE = "partitions.enumerate"
# The partition generator; its time accrues inside each ``__next__``.
GENERATOR = ("starspec.spectrum", "enumerate_partitions", ENUMERATE, False)
REQUEST = "cli.request"

#: Names whose self times, with the unattributed time, add up to the wall time.
SELF_METRICS = {
    "partitions.enumerate_s": ENUMERATE,
    "partitions.dimension_s": "partitions.dimension",
    "partitions.corner_s": "partitions.corner",
    "spectrum.table_self_s": "spectrum.table",
    "spectrum.bound_s": "spectrum.bound",
    "cayley.walk_s": "cayley.walk",
    "cayley.solve_s": "cayley.solve",
    "cayley.oracle_self_s": "cayley.oracle",
    "semicircle.report_self_s": "semicircle.report",
    "semicircle.kolmogorov_s": "semicircle.kolmogorov",
    "semicircle.moment_ratio_s": "semicircle.moment_ratio",
    "semicircle.mass_s": "semicircle.mass",
    "cli.self_s": REQUEST,
}


class Tracer:
    def __init__(self) -> None:
        # A frame is [start, time covered by children, span id or None, number
        # of direct wrapped children]; the bottom frame stands for the worker
        # outside any request.
        self._stack: list[list] = [[0.0, 0.0, None, 0]]
        self.totals: dict[str, list] = {}  # name -> [count, total, self, children]
        self.per_call_s = 0.0
        self.spans: list[tuple] = []
        self.counters = {
            "partitions.shapes": 0,
            "cayley.walk_states": 0,
            "cayley.walk_moves": 0,
            "cayley.solve_size": 0,
        }
        self._next_id = 0
        self._request_id: int | None = None

    def _push(self, keep: bool) -> list:
        span_id = None
        if keep:
            span_id = self._next_id
            self._next_id += 1
        frame = [perf_counter(), 0.0, span_id, 0]
        self._stack.append(frame)
        return frame

    def _pop(self, name: str, frame: list) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - frame[0]
        stack[-1][1] += duration
        stack[-1][3] += 1
        stat = self.totals.setdefault(name, [0, 0.0, 0.0, 0])
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame[1]
        stat[3] += frame[3]
        if frame[2] is not None:
            self.spans.append((frame[2], stack[-1][2], self._request_id, name, frame[0], end))

    def wrap(self, name: str, fn, keep: bool):
        def wrapper(*args, **kwargs):
            frame = self._push(keep)
            try:
                return fn(*args, **kwargs)
            finally:
                self._pop(name, frame)

        return wrapper

    def request(self, fn, *args):
        """Call ``fn(*args)`` as the root span of one request."""
        frame = self._push(True)
        self._request_id = frame[2]
        try:
            return fn(*args)
        finally:
            self._pop(REQUEST, frame)
            self._request_id = None

    def calibrate(self, calls: int = 40_000) -> float:
        """Seconds per wrapped call spent outside the call's own timed interval.

        Times ``calls`` calls of an empty wrapped function and takes off the
        time their frames recorded. The median of five batches is kept in
        ``per_call_s``; the tracer's totals are left as they were.
        """
        probe = Tracer()
        wrapped = probe.wrap("probe", lambda: None, False)
        batches = []
        for _ in range(5):
            probe.totals.clear()
            begin = perf_counter()
            for _ in range(calls):
                wrapped()
            elapsed = perf_counter() - begin
            batches.append(max(0.0, (elapsed - probe.totals["probe"][1]) / calls))
        self.per_call_s = sorted(batches)[2]
        return self.per_call_s

    def install(self) -> list[str]:
        """Wrap the names of ``WRAPPED`` and the partition generator.

        Returns the ``module.attribute`` names that were missing and skipped.
        """
        missing = []
        for module_name, attr, name, keep in WRAPPED + (GENERATOR,):
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
            elif name == ENUMERATE:
                setattr(module, attr, self._enumerate(original))
            else:
                setattr(module, attr, self._counted(attr, self.wrap(name, original, keep)))
        return missing

    def _counted(self, attr: str, wrapped):
        """Add the computed work counters of the walk DP and the moment solve."""
        counters = self.counters
        if attr == "closed_walk_counts":
            def walk(n, k_max):
                counters["cayley.walk_states"] += factorial(n)
                counters["cayley.walk_moves"] += k_max * (n - 1) * factorial(n)
                return wrapped(n, k_max)

            return walk
        if attr == "solve_exact":
            def solve(matrix, rhs):
                counters["cayley.solve_size"] += len(matrix)
                return wrapped(matrix, rhs)

            return solve
        return wrapped

    def _enumerate(self, original):
        tracer = self

        class TimedPartitions:
            """Iterator whose ``__next__`` time accrues to partitions.enumerate."""

            def __init__(self, n):
                frame = tracer._push(False)
                try:
                    self._it = original(n)
                finally:
                    tracer._pop(ENUMERATE, frame)

            def __iter__(self):
                return self

            def __next__(self):
                frame = tracer._push(False)
                try:
                    shape = next(self._it)
                finally:
                    tracer._pop(ENUMERATE, frame)
                tracer.counters["partitions.shapes"] += 1
                return shape

        return TimedPartitions

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced round whose timed phase took ``wall_s``."""

        def stat(name: str, i: int) -> float:
            return self.totals.get(name, (0, 0.0, 0.0, 0))[i]

        cost = self.per_call_s
        out = {
            metric: stat(name, 2) - cost * stat(name, 3) for metric, name in SELF_METRICS.items()
        }
        out.update(self.counters)
        out["partitions.dimension_calls"] = stat("partitions.dimension", 0)
        out["partitions.corner_calls"] = stat("partitions.corner", 0)
        out["spectrum.table_s"] = stat("spectrum.table", 1)
        out["spectrum.table_calls"] = stat("spectrum.table", 0)
        out["cli.requests"] = stat(REQUEST, 0)
        calls = sum(s[0] for s in self.totals.values())
        out["trace.wrapper_s"] = cost * calls
        out["trace.per_call_s"] = cost
        unattributed = wall_s - stat(REQUEST, 1) - cost * stat(REQUEST, 0)
        out["trace.unattributed_share"] = unattributed / wall_s
        accounted = sum(out[m] for m in SELF_METRICS) + out["trace.wrapper_s"] + unattributed
        out["trace.accounting_error_s"] = accounted - wall_s
        return out
