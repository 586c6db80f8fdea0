"""Wall-clock timers and event counters for the simulator itself.

A :class:`PerfCollector` measures the *simulator*, never the simulated
machine: the wall time of each run's simulation loop (``simulate``) and
the cycles the event-driven fast path skipped
(``core.cycles_skipped``, including those the prefetcher ticked
through while the core was idle).  It is deliberately cheap — a dict update
per event bucket, a ``perf_counter`` pair per timed section — so it can
stay attached even when nobody reads it.

Collectors are **excluded from simulation snapshots**:
:mod:`repro.integrity.snapshot` detaches the simulator's collector
while it pickles the machine, and a restored machine starts with a
fresh one.  This keeps snapshot/replay bit-identical regardless of how
much (or little) profiling happened around a run — wall-clock
measurements could never be replayed meaningfully anyway.
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

    def __repr__(self) -> str:
        return (
            f"PerfCollector({len(self.counters)} counters, "
            f"{len(self.timers)} timers)"
        )

