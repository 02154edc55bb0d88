"""Spans around the benchmark's calls into the package, kept in memory.

A span records its name, start, end, the operation that caused it (id and
name), the grid size it covered and whether it completed.  Spans are only
recorded when tracing is on; failure counts per function are kept in both
modes, and a traced run reports them as `<function>.failed`.
"""

import contextlib
import statistics
import time
from collections import Counter, defaultdict


class CheckFailed(Exception):
    """An output missed its reference check."""

    def __init__(self, name, message):
        super().__init__(f"{name}: {message}")
        self.name = name


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans = []
        self.failed = Counter()
        self.op_id = -1
        self.op_name = ""

    @contextlib.contextmanager
    def span(self, name, n=None, points=0):
        t0 = time.perf_counter()
        ok = False
        try:
            yield
            ok = True
        finally:
            if not ok:
                self.failed[name] += 1
            if self.enabled:
                self.spans.append((name, t0, time.perf_counter(), self.op_id, self.op_name,
                                   n, points, ok))

    def call(self, name, fn, *args, n=None, points=0, **kwargs):
        with self.span(name, n=n, points=points):
            return fn(*args, **kwargs)

    def check(self, name, ok, message):
        if not ok:
            self.failed[name] += 1
            raise CheckFailed(name, message)

    def counted(self, fn, name):
        """Wrap fn so that every call is a span (used for family evaluations)."""
        def wrapped(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapped


def span_table(spans, batches):
    """Per-function statistics over traced spans; counts and busy time are per batch."""
    by_name = defaultdict(list)
    for name, t0, t1, op_id, op_name, n, points, ok in spans:
        by_name[name].append((t1 - t0, n, points))
    table = {}
    for name, rows in sorted(by_name.items()):
        durs = [d for d, _, _ in rows]
        entry = {"calls": len(rows) / batches, "busy_s": sum(durs) / batches,
                 "ms": 1e3 * statistics.median(durs)}
        per_n = defaultdict(lambda: [0.0, 0])
        for d, n, points in rows:
            if points:
                per_n[n][0] += d
                per_n[n][1] += points
        if per_n:
            entry["us_per_point"] = {n: 1e6 * busy / pts for n, (busy, pts) in sorted(per_n.items())}
        table[name] = entry
    return table


def nested_count(spans, inner, outer):
    """Number of `inner` spans that lie inside some `outer` span of the same operation."""
    windows = defaultdict(list)
    for name, t0, t1, op_id, *_ in spans:
        if name == outer:
            windows[op_id].append((t0, t1))
    count = 0
    for name, t0, t1, op_id, *_ in spans:
        if name == inner and any(a <= t0 and t1 <= b for a, b in windows.get(op_id, ())):
            count += 1
    return count
