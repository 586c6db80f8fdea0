"""Statistics primitives: a running mean, an integer histogram, a rate.

The paper reports rates (miss rate, prefetch accuracy, bus utilization)
and averages (load latency).  :class:`Accumulator` keeps the core's
load-latency mean (Figure 8), :class:`Histogram` the delta bit-widths of
the Figure 4 analysis, and :func:`ratio` is the zero-safe division every
rate goes through.  Event counts are plain integer attributes of the
component that counts them.
"""

from __future__ import annotations

from typing import Dict, List


class Accumulator:
    """Tracks a running sum and count, exposing the mean.

    Used for average load latency (Figure 8).
    """

    __slots__ = ("name", "total", "count", "maximum")

    def __init__(self, name: str) -> None:
        self.name = name
        self.total = 0
        self.count = 0
        self.maximum = 0

    def add(self, sample: int) -> None:
        self.total += sample
        self.count += 1
        if sample > self.maximum:
            self.maximum = sample

    @property
    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def reset(self) -> None:
        self.total = 0
        self.count = 0
        self.maximum = 0

    def __repr__(self) -> str:
        return f"Accumulator({self.name}: mean={self.mean:.3f}, n={self.count})"


class Histogram:
    """Integer-keyed histogram (e.g. delta bit-width counts for Figure 4)."""

    __slots__ = ("name", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.buckets: Dict[int, int] = {}

    def add(self, key: int, amount: int = 1) -> None:
        self.buckets[key] = self.buckets.get(key, 0) + amount

    @property
    def total(self) -> int:
        return sum(self.buckets.values())

    def fraction_at_or_below(self, key: int) -> float:
        """Fraction of samples with bucket key <= ``key``."""
        total = self.total
        if total == 0:
            return 0.0
        covered = sum(count for k, count in self.buckets.items() if k <= key)
        return covered / total

    def cumulative(self, keys: List[int]) -> List[float]:
        return [self.fraction_at_or_below(key) for key in keys]

    def reset(self) -> None:
        self.buckets.clear()

    def __repr__(self) -> str:
        return f"Histogram({self.name}: n={self.total})"


def ratio(numerator: int, denominator: int) -> float:
    """A rate that is 0.0 (not NaN) when the denominator is zero."""
    if denominator == 0:
        return 0.0
    return numerator / denominator
