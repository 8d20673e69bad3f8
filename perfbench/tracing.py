"""Spans around the benchmark's calls into tropoly, kept in memory.

A span is [name, start, end, parent index]. Its layer is the part of the
name before the first dot, which is the tropoly module called. Spans are
recorded only from the benchmark's files, around calls into public
functions, so nothing in the program is changed by tracing.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

#: Layers whose self times make up an answer, in report order.
LAYERS = ("cli", "polynomial", "envelope", "canonical", "factorization")

#: Spans that time work the answer does not do; they are reported but not
#: counted in any layer's self time.
PROBES = {"canonical.revalidate"}


class NullTracer:
    """Untraced runs: calls go straight through."""

    on = False

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)

    def hull(self, f):
        pass

    def count(self, name, value):
        pass


class Tracer:
    on = True

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.maxima: dict = defaultdict(int)
        self._stack: list = []

    def call(self, name, fn, *args):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def hull(self, f):
        """Build f's memoized hull under its own span, so that callers that
        reuse it (canonicalize, factor, equivalent, ...) time without it."""
        from tropoly.envelope import hull_points

        h = self.call("envelope.hull_points", hull_points, f)
        self.count("envelope.points_in", sum(1 for c in f.coeffs if not c.is_infinite))
        self.count("envelope.hull_vertices", len(h))

    def count(self, name, value):
        self.counts[name] += value

    def maximum(self, name, value):
        self.maxima[name] = max(self.maxima[name], value)

    def self_times(self) -> dict:
        """Total self time in seconds per span name: duration minus the
        durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = defaultdict(float)
        for (name, t0, t1, _), c in zip(self.spans, child):
            out[name] += t1 - t0 - c
        return out

    def total(self, name) -> float:
        return sum(t1 - t0 for n, t0, t1, _ in self.spans if n == name)
