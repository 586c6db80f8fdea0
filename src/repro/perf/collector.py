"""Wall-clock timers and event counters for the simulator itself.

A :class:`PerfCollector` measures the *simulator*, never the simulated
machine: the wall time of each run's simulation loop (``simulate``) and
the cycles the event-driven fast path skipped
(``core.cycles_skipped``).  It is deliberately cheap — a dict update
per event bucket, a ``perf_counter`` pair per timed section — so it can
stay attached even when nobody reads it.

Collectors are **excluded from simulation snapshots**: pickling one
yields an empty collector.  This keeps snapshot/replay bit-identical
regardless of how much (or little) profiling happened around a run —
wall-clock measurements could never be replayed meaningfully anyway.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict


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

