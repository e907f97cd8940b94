"""In-memory span recorder for the benchmark's calls into clustercap.

A span is one call the benchmark makes into a layer's public function: its
name, start, end, the span that was open when it began (its parent) and a
dict of attributes (counts, sizes, the times a call reports about itself).
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """Records every span opened through `span`."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the enclosed block; yields the attribute dict for updates."""
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "attrs": attrs,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def find(self, name: str, **match) -> list[dict]:
        return [
            s
            for s in self.spans
            if s["name"] == name and all(s["attrs"].get(k) == v for k, v in match.items())
        ]

    def durations(self, name: str, **match) -> list[float]:
        return [s["end"] - s["start"] for s in self.find(name, **match)]

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


class NullTracer:
    """Stand-in for untraced runs: no clock reads, nothing kept."""

    def __init__(self):
        self._sink: dict = {}

    def span(self, name: str, **attrs):
        self._sink.clear()
        return nullcontext(self._sink)


def span_cost_s(samples: int = 5000) -> float:
    """Median wall time of one empty span on a scratch tracer."""
    costs = []
    for _ in range(5):
        scratch = Tracer()
        t0 = time.perf_counter()
        for _ in range(samples // 5):
            with scratch.span("probe", k=0):
                pass
        costs.append((time.perf_counter() - t0) / (samples // 5))
    return statistics.median(costs)
