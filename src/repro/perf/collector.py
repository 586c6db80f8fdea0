"""Wall-clock timers and event counters for the simulator itself.

A :class:`PerfCollector` measures the *simulator*, never the simulated
machine: wall time per phase (trace loading, simulation), cycles the
event-driven fast path skipped, events per second.  It is deliberately
cheap — a dict update per event bucket, a ``perf_counter`` pair per
timed section — so it can stay attached even when nobody reads it.

Collectors are **excluded from simulation snapshots**: pickling one
yields an empty collector.  This keeps snapshot/replay bit-identical
regardless of how much (or little) profiling happened around a run —
wall-clock measurements could never be replayed meaningfully anyway.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Optional


class PerfCollector:
    """Named monotonically-growing counters plus accumulating timers."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.timers: Dict[str, float] = {}

    # -- counters ------------------------------------------------------

    def add(self, name: str, amount: float = 1.0) -> None:
        """Accumulate ``amount`` into counter ``name``."""
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def get(self, name: str, default: float = 0.0) -> float:
        return self.counters.get(name, default)

    # -- timers --------------------------------------------------------

    @contextmanager
    def time(self, name: str):
        """Accumulate the wall-clock duration of the ``with`` body."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            elapsed = time.perf_counter() - start
            self.timers[name] = self.timers.get(name, 0.0) + elapsed

    def elapsed(self, name: str, default: float = 0.0) -> float:
        return self.timers.get(name, default)

    # -- derived rates -------------------------------------------------

    def rate(self, counter: str, timer: str) -> float:
        """``counter`` events per second of ``timer`` (0 when unmeasured)."""
        seconds = self.timers.get(timer, 0.0)
        if seconds <= 0.0:
            return 0.0
        return self.counters.get(counter, 0.0) / seconds

    # -- aggregation ---------------------------------------------------

    def merge(self, other: "PerfCollector") -> None:
        """Fold another collector's counters and timers into this one."""
        for name, value in other.counters.items():
            self.add(name, value)
        for name, value in other.timers.items():
            self.timers[name] = self.timers.get(name, 0.0) + value

    def report(self) -> Dict[str, Dict[str, float]]:
        """A JSON-able snapshot of everything collected so far."""
        return {
            "counters": dict(self.counters),
            "timers": dict(self.timers),
        }

    def reset(self) -> None:
        self.counters.clear()
        self.timers.clear()

    # -- pickling ------------------------------------------------------
    # Snapshots capture the whole simulator object graph; the collector
    # deliberately contributes nothing so fast-path and stepped runs
    # (and profiled and unprofiled ones) produce bit-identical payloads.

    def __getstate__(self):
        return {}

    def __setstate__(self, state):
        self.counters = {}
        self.timers = {}

    def __repr__(self) -> str:
        return (
            f"PerfCollector({len(self.counters)} counters, "
            f"{len(self.timers)} timers)"
        )

