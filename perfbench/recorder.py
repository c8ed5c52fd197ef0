"""In-memory span recorder and the arithmetic the benchmark reports.

Pure Python on purpose: the harness imports it before numpy, so that the
BLAS thread count is fixed before any BLAS library loads.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict


class Recorder:
    """Spans and counters of one traced pass.

    A span is [name, start, end, parent index (-1 for a root), op id].
    Spans stay in memory until the run ends; the caller sets ``op`` at
    each operation boundary so that spans of one operation share an id.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self.op = 0
        self._open = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent, self.op])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, index: int):
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {index} closed out of order")
        self._open.pop()
        self.spans[index][2] = self.clock()

    def count(self, name: str, amount=1):
        self.counts[name] += amount


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Per span: its duration minus the part its direct children cover."""
    children = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered(children[i], start, end)
        for i, (name, start, end, parent, op) in enumerate(spans)
    ]


def self_time_by_name(spans):
    """Total self time per span name, in seconds."""
    out = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        out[span[0]] += own
    return dict(out)


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the sample at rank ceil(p/100 * n)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """Samples ranked strictly above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))
