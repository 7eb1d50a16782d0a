"""Spans, self time and percentiles for the benchmark.

A span is recorded around each call the benchmark makes into a public
function of the workbench.  Spans are kept in memory as tuples and
handed back when the run ends; the parent process turns them into
per-layer self times.
"""

from __future__ import annotations

import math
from time import perf_counter

# span tuple fields
NAME, START, END, PARENT, REQUEST, FAILED = range(6)

# the workbench's library modules, each a layer of the per-layer metrics;
# a span's name is "layer.function"
LAYERS = ("formula", "goedelset", "semantics", "decide", "proofkit", "herbrand",
          "transforms")


class Tracer:
    """Records (name, start, end, parent index, request id, failed) for
    every wrapped call; ``request`` is set by the caller per request."""

    def __init__(self):
        self.spans: list = []
        self.request = -1
        self._open: list[int] = []

    def wrap(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(result)`` runs once the span
        has closed, so counting work does not add to the span's time."""
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result
        return traced

    def span(self, name: str):
        return _Span(self, name)


class _Span:
    """A span as a context manager; it is marked failed when the body
    raises."""

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append(None)
        self.parent = t._open[-1] if t._open else -1
        t._open.append(self.index)
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = perf_counter()
        t = self.tracer
        t._open.pop()
        t.spans[self.index] = (self.name, self.start, end, self.parent, t.request,
                               exc_type is not None)
        return False


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its
    child spans cover (children clipped to the parent, overlaps merged)."""
    children: dict[int, list] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered = 0.0
        cursor = start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out.append((end - start) - covered)
    return out


def percentile(samples, q: float) -> float:
    """The q-quantile (0 < q < 1) by the nearest-rank rule.  Refuses when
    fewer than ten samples lie beyond it, because such a tail is set by a
    handful of requests."""
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    if n - rank < 10:
        raise ValueError(f"{n} samples leave {n - rank} beyond the {q:.0%} point; "
                         f"at least 10 are needed")
    return sorted(samples)[rank - 1]


def median(samples) -> float:
    s = sorted(samples)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2
