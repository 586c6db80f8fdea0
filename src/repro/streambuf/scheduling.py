"""Predictor-port and bus arbitration across stream buffers (Section 4.4).

Only one stream buffer may use the shared address predictor each cycle,
and only one may launch a prefetch on the L1-L2 bus.  The paper compares
round-robin arbitration against priority counters (incremented by 2 on
every stream-buffer hit, aged by 1 every 10 L1 data-cache misses, LRU
breaking ties).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, List, Optional

from repro.config import SchedulingPolicy, StreamBufferConfig
from repro.streambuf.buffer import StreamBuffer

#: Predicate selecting buffers eligible for the resource being arbitrated.
Eligible = Callable[[StreamBuffer], bool]


class Scheduler(ABC):
    """Chooses which eligible buffer wins a shared resource this cycle.

    Concrete schedulers count their successful picks in
    ``prediction_grants`` / ``prefetch_grants`` so the observability
    layer can report how contended each port was.
    """

    #: True when a pick depends only on the buffers' state, never on
    #: earlier grants: asked again with no buffer changed, it names the
    #: same winner.  The controller then keeps that winner standing
    #: across dropped duplicate predictions instead of re-arbitrating.
    #: Such a scheduler also offers ``pick(buffers, eligible)``, the
    #: same choice as a query that counts no grant; the invariant
    #: ``streambuf.port`` re-asks it.
    stateless = False

    def __init__(self) -> None:
        self.prediction_grants = 0
        self.prefetch_grants = 0

    @abstractmethod
    def pick_for_prediction(
        self, buffers: List[StreamBuffer], eligible: Eligible
    ) -> Optional[StreamBuffer]:
        """The buffer that gets the predictor port, or None."""

    @abstractmethod
    def pick_for_prefetch(
        self, buffers: List[StreamBuffer], eligible: Eligible
    ) -> Optional[StreamBuffer]:
        """The buffer that gets the L1-L2 bus, or None."""


class RoundRobinScheduler(Scheduler):
    """Equal chances for every buffer, as described in the paper:
    separate rotating pointers for prediction and prefetching."""

    def __init__(self) -> None:
        super().__init__()
        self._predict_pointer = 0
        self._prefetch_pointer = 0

    def _scan(
        self, buffers: List[StreamBuffer], eligible: Eligible, start: int
    ) -> Optional[int]:
        count = len(buffers)
        for offset in range(count):
            index = (start + offset) % count
            if eligible(buffers[index]):
                return index
        return None

    def pick_for_prediction(
        self, buffers: List[StreamBuffer], eligible: Eligible
    ) -> Optional[StreamBuffer]:
        index = self._scan(buffers, eligible, self._predict_pointer)
        if index is None:
            return None
        self._predict_pointer = (index + 1) % len(buffers)
        self.prediction_grants += 1
        return buffers[index]

    def pick_for_prefetch(
        self, buffers: List[StreamBuffer], eligible: Eligible
    ) -> Optional[StreamBuffer]:
        index = self._scan(buffers, eligible, self._prefetch_pointer)
        if index is None:
            return None
        self._prefetch_pointer = (index + 1) % len(buffers)
        self.prefetch_grants += 1
        return buffers[index]


class PriorityScheduler(Scheduler):
    """Highest priority counter first; LRU among equals (Section 4.4)."""

    stateless = True

    def pick(
        self, buffers: List[StreamBuffer], eligible: Eligible
    ) -> Optional[StreamBuffer]:
        """The winner among ``eligible`` buffers, counting no grant."""
        # One pass, no candidate lists: this runs per cycle per port.
        # Recency tie-break: among equal priorities the most recently
        # useful buffer wins the port, keeping the live stream ahead of
        # stale ones (our reading of the paper's "LRU policy" for ties).
        # Strict > keeps the first of fully tied buffers, like max().
        best = None
        best_priority = best_recency = 0
        for buffer in buffers:
            if not eligible(buffer):
                continue
            priority = buffer.priority.value
            if (
                best is None
                or priority > best_priority
                or (
                    priority == best_priority
                    and buffer.last_use_cycle > best_recency
                )
            ):
                best = buffer
                best_priority = priority
                best_recency = buffer.last_use_cycle
        return best

    def pick_for_prediction(
        self, buffers: List[StreamBuffer], eligible: Eligible
    ) -> Optional[StreamBuffer]:
        winner = self.pick(buffers, eligible)
        if winner is not None:
            self.prediction_grants += 1
        return winner

    def pick_for_prefetch(
        self, buffers: List[StreamBuffer], eligible: Eligible
    ) -> Optional[StreamBuffer]:
        winner = self.pick(buffers, eligible)
        if winner is not None:
            self.prefetch_grants += 1
        return winner


def make_scheduler(config: StreamBufferConfig) -> Scheduler:
    """Build the scheduler selected by ``config.scheduling``."""
    if config.scheduling == SchedulingPolicy.ROUND_ROBIN:
        return RoundRobinScheduler()
    if config.scheduling == SchedulingPolicy.PRIORITY:
        return PriorityScheduler()
    raise ValueError(f"unknown scheduling policy: {config.scheduling}")
