"""In-memory spans and counters recorded around calls into ``partialrom``.

A span records its name, start, end, parent span and operation id.  Spans are
kept in a list and written out once the run ends.  The self time of a span is
its duration minus the time its child spans cover; children never overlap
because the benchmark is single-threaded.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict


class Tracer:
    """Records spans and counters for one traced pass."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None, op id]
        self.counts: Counter = Counter()
        self.op_counts: dict = defaultdict(Counter)
        self.op = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount
        self.op_counts[self.op][name] += amount

    def durations(self) -> dict[str, list[float]]:
        """Span durations grouped by span name."""
        out: dict[str, list[float]] = defaultdict(list)
        for name, start, end, _, _ in self.spans:
            out[name].append(end - start)
        return out

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            out[name] += end - start - covered
        return out

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "op": op}
                for n, s, e, p, op in self.spans
            ],
            "counts": dict(self.counts),
            "per_op": {str(op): dict(c) for op, c in self.op_counts.items()},
        }


class NullTracer:
    """Same interface as :class:`Tracer`, recording nothing (untraced runs)."""

    enabled = False
    op = None

    def span(self, name: str):
        return contextlib.nullcontext()

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, name: str, amount: int = 1) -> None:
        pass
