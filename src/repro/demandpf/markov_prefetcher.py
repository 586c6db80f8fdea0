"""Joseph & Grunwald's demand-based Markov prefetcher (Section 3.2).

On a cache miss, the miss address indexes a Markov table whose entry
holds the set of addresses that have followed this miss before; those
are prefetched into a prefetch buffer and the prefetcher then *stays
idle until the next miss* — predictions are never chained, which is the
key contrast with Predictor-Directed Stream Buffers.

Bandwidth is limited with the paper's description of accuracy-based
adaptivity: each predicted address carries a two-bit saturating counter,
incremented when its prefetch is evicted unused and decremented when
used; while the counter's sign bit is set the prediction is disabled
(but still tracked, so it can be re-enabled).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.demandpf.buffer import PrefetchBuffer
from repro.memory.hierarchy import NEVER, MemoryHierarchy, PrefetcherPort


class _Successor:
    """One predicted next address and its adaptivity counter."""

    __slots__ = ("address", "counter")

    def __init__(self, address: int) -> None:
        self.address = address
        self.counter = 0  # two-bit: 0..3; "sign bit set" == >= 2

    @property
    def disabled(self) -> bool:
        return self.counter >= 2

    def punish(self) -> None:
        self.counter = min(3, self.counter + 1)

    def reward(self) -> None:
        self.counter = max(0, self.counter - 1)


class DemandMarkovPrefetcher(PrefetcherPort):
    """Miss-triggered Markov prefetching with 2-bit adaptivity."""

    def __init__(
        self,
        block_size: int = 32,
        table_entries: int = 2048,
        successors_per_entry: int = 2,
        buffer_entries: int = 16,
    ) -> None:
        self.block_size = block_size
        self.table_entries = table_entries
        self.successors_per_entry = successors_per_entry
        self.buffer = PrefetchBuffer(buffer_entries)
        self._table: OrderedDict = OrderedDict()  # miss block -> [_Successor]
        self._source: Dict[int, _Successor] = {}  # prefetched block -> origin
        self._pending: List[int] = []
        self._last_miss: Optional[int] = None
        self.hierarchy: Optional[MemoryHierarchy] = None
        self.prefetches_issued = 0
        self.prefetches_used = 0

    def attach(self, hierarchy: MemoryHierarchy) -> None:
        self.hierarchy = hierarchy
        hierarchy.prefetcher = self

    # ------------------------------------------------------------------
    # Table maintenance
    # ------------------------------------------------------------------

    def _successors(self, block: int) -> List[_Successor]:
        entry = self._table.get(block)
        if entry is not None:
            self._table.move_to_end(block)
            return entry
        if len(self._table) >= self.table_entries:
            self._table.popitem(last=False)
        entry = []
        self._table[block] = entry
        return entry

    def _record_transition(self, from_block: int, to_block: int) -> None:
        successors = self._successors(from_block)
        for successor in successors:
            if successor.address == to_block:
                return
        if len(successors) >= self.successors_per_entry:
            successors.pop(0)
        successors.append(_Successor(to_block))

    # ------------------------------------------------------------------
    # PrefetcherPort
    # ------------------------------------------------------------------

    def probe(self, block_addr: int, cycle: int) -> Optional[int]:
        ready = self.buffer.take(block_addr)
        if ready is None:
            return None
        self.prefetches_used += 1
        source = self._source.pop(block_addr, None)
        if source is not None:
            source.reward()
        return ready

    def on_l1_miss(self, pc: int, addr: int, cycle: int, sb_hit: bool) -> None:
        block = addr & ~(self.block_size - 1)
        if self._last_miss is not None and self._last_miss != block:
            self._record_transition(self._last_miss, block)
        self._last_miss = block
        # Queue this miss's known successors for prefetching.
        for successor in self._successors(block):
            if successor.disabled:
                continue
            if self.buffer.contains(successor.address):
                continue
            if successor.address not in self._pending:
                self._pending.append(successor.address)
                self._source[successor.address] = successor

    def tick(self, cycle: int) -> None:
        if not self._pending or self.hierarchy is None:
            return
        if not self.hierarchy.can_prefetch(cycle):
            return
        block = self._pending.pop(0)
        ready = self.hierarchy.issue_prefetch(block, cycle)
        self.prefetches_issued += 1
        if len(self.buffer) >= self.buffer.entries:
            # An unused block is about to fall out: punish its source.
            for victim, source in list(self._source.items()):
                if self.buffer.contains(victim):
                    source.punish()
                    self._source.pop(victim, None)
                    break
        self.buffer.insert(block, ready)

    def next_event_cycle(self, cycle: int) -> int:
        """Idle until a queued prefetch can win the L1-L2 bus."""
        if not self._pending or self.hierarchy is None:
            return NEVER
        return self.hierarchy.next_prefetch_slot(cycle)

    def warm(self, misses: List[Tuple[int, int]], detuned: bool) -> None:
        """Train the Markov table on each fast-forwarded miss, then bound
        the queue.

        Fast-forward never ticks, so ``_pending`` (and the ``_source``
        back-map for never-issued predictions) grows with the stretch;
        keep only the newest buffer's worth of predictions.
        """
        super().warm(misses, detuned)
        if len(self._pending) <= self.buffer.entries:
            return
        dropped = self._pending[: -self.buffer.entries]
        del self._pending[: -self.buffer.entries]
        for address in dropped:
            if not self.buffer.contains(address):
                self._source.pop(address, None)

    @property
    def accuracy(self) -> float:
        if self.prefetches_issued == 0:
            return 0.0
        return min(1.0, self.prefetches_used / self.prefetches_issued)

    def reset_stats(self) -> None:
        self.prefetches_issued = 0
        self.prefetches_used = 0
