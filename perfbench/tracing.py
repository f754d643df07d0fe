"""Spans and exact counters recorded around the benchmark's library calls.

A span is (name, start, end, parent, job id), kept in memory and written out
when the run ends.  Span names are "<module>.<operation>", where <module> is
the `metaplectic` module whose public function the benchmark called.  Only
the benchmark's own files open spans; nothing inside `src/` is traced.

`NULL` is the tracer used with tracing off: its spans and counters do
nothing, so an untraced job pays one no-op context manager per call.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr._stack[-1] if tr._stack else -1
        tr.spans.append([self.name, perf_counter(), 0.0, parent, tr.job_id])
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = perf_counter()
        tr._stack.pop()
        return False


class Tracer:
    """Collects spans and exact counts for one pass over a fixed job set."""

    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []
        self.job_id = None
        self.counts = defaultdict(int)

    def span(self, name):
        return _Span(self, name)

    def add(self, name, amount=1):
        self.counts[name] += amount

    def self_times(self):
        """Per span: its duration minus the part covered by its child spans."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def by_name(self):
        """name -> [calls, self seconds]."""
        out = defaultdict(lambda: [0, 0.0])
        for span, own in zip(self.spans, self.self_times()):
            entry = out[span[0]]
            entry[0] += 1
            entry[1] += own
        return out


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _NullTracer:
    enabled = False
    _span = _NullSpan()

    def span(self, name):
        return self._span

    def add(self, name, amount=1):
        pass


NULL = _NullTracer()
