"""Spans around the benchmark's calls into cartanbal, and the tail percentile.

Spans are recorded only from the benchmark's own code: each call the
benchmark makes into a public function of a cartanbal module can go through
``Tracer.call``.  Nothing is instrumented inside ``src/``.  When the tracer
is disabled ``call`` is a plain call, so the untraced run pays one extra
Python frame per call.
"""

from __future__ import annotations

import math
from collections import defaultdict
from time import perf_counter


class Tracer:
    """In-memory span recorder; spans are (name, start, end, parent, op)."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.op = None  # operation id stamped on every span
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    def call(self, fn, *args, **kwargs):
        """Call fn, recording a span named "<module>.<function>" if enabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        layer = fn.__module__.rpartition(".")[2]
        return self.timed(f"{layer}.{fn.__name__}", fn, *args, **kwargs)

    def timed(self, name: str, fn, *args, **kwargs):
        """Call fn under an explicitly named span if enabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def self_times(self) -> dict[str, float]:
        """Seconds spent in each layer, minus the time of nested spans."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            out[name.partition(".")[0]] += end - start - child_time[index]
        return dict(out)

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent is None)

    def as_records(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "op": op}
            for name, start, end, parent, op in self.spans
        ]


def tail(values) -> tuple[float, float, int, int] | None:
    """Highest percentile with at least ten samples above it, by nearest rank.

    Returns (percentile, value, samples beyond, sample count), or None when
    even the median has fewer than ten samples above it (under 20 samples).
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= 10:
            return pct, ordered[rank - 1], n - rank, n
    return None
