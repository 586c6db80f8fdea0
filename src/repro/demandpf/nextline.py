"""Smith's tagged Next-Line Prefetching (paper Section 3.2).

Each cache block conceptually carries a tag bit: when a block is
prefetched its bit is cleared; when a block is *used* with the bit clear,
the next sequential block is prefetched and the bit set.  The effect is
that a sequential walk keeps exactly one block of lookahead in flight.

This model keeps the tag bits in a bounded set and parks prefetched
blocks in a :class:`~repro.demandpf.buffer.PrefetchBuffer`.  It exists
as a historical baseline for the prior-prefetcher ablation.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.demandpf.buffer import PrefetchBuffer
from repro.memory.hierarchy import NEVER, MemoryHierarchy, PrefetcherPort


class NextLinePrefetcher(PrefetcherPort):
    """One-block-lookahead sequential prefetching on demand misses."""

    def __init__(
        self,
        block_size: int = 32,
        buffer_entries: int = 16,
        tag_entries: int = 4096,
    ) -> None:
        self.block_size = block_size
        self.buffer = PrefetchBuffer(buffer_entries)
        self.tag_entries = tag_entries
        self._fresh_tags: OrderedDict = OrderedDict()  # blocks with bit == 0
        self._pending: List[int] = []
        self.hierarchy: Optional[MemoryHierarchy] = None
        self.prefetches_issued = 0
        self.prefetches_used = 0

    def attach(self, hierarchy: MemoryHierarchy) -> None:
        self.hierarchy = hierarchy
        hierarchy.prefetcher = self

    def _queue_next_line(self, block: int) -> None:
        next_block = block + self.block_size
        if self.buffer.contains(next_block) or next_block in self._pending:
            return
        self._pending.append(next_block)

    def _mark_fresh(self, block: int) -> None:
        """Record that ``block`` was prefetched (tag bit cleared)."""
        if block in self._fresh_tags:
            self._fresh_tags.move_to_end(block)
            return
        if len(self._fresh_tags) >= self.tag_entries:
            self._fresh_tags.popitem(last=False)
        self._fresh_tags[block] = True

    # ------------------------------------------------------------------
    # PrefetcherPort
    # ------------------------------------------------------------------

    def probe(self, block_addr: int, cycle: int) -> Optional[int]:
        ready = self.buffer.take(block_addr)
        if ready is None:
            return None
        self.prefetches_used += 1
        # The block is being used for the first time since its prefetch:
        # trigger the next line (the tag-bit rule).
        self._fresh_tags.pop(block_addr, None)
        self._queue_next_line(block_addr)
        return ready

    def on_l1_miss(self, pc: int, addr: int, cycle: int, sb_hit: bool) -> None:
        if not sb_hit:
            block = addr & ~(self.block_size - 1)
            self._queue_next_line(block)

    def tick(self, cycle: int) -> None:
        if not self._pending or self.hierarchy is None:
            return
        if not self.hierarchy.can_prefetch(cycle):
            return
        block = self._pending.pop(0)
        ready = self.hierarchy.issue_prefetch(block, cycle)
        self.prefetches_issued += 1
        self.buffer.insert(block, ready)
        self._mark_fresh(block)

    def next_event_cycle(self, cycle: int) -> int:
        """Idle until a queued prefetch can win the L1-L2 bus."""
        if not self._pending or self.hierarchy is None:
            return NEVER
        return self.hierarchy.next_prefetch_slot(cycle)

    def warm(self, misses: List[Tuple[int, int]], detuned: bool) -> None:
        """Queue each fast-forwarded miss's next line, then bound the queue.

        Fast-forward never ticks, so ``_pending`` grows with the stretch;
        only the most recent requests could ever fit the buffer anyway.
        """
        super().warm(misses, detuned)
        if len(self._pending) > self.buffer.entries:
            del self._pending[: -self.buffer.entries]

    @property
    def accuracy(self) -> float:
        if self.prefetches_issued == 0:
            return 0.0
        return min(1.0, self.prefetches_used / self.prefetches_issued)

    def reset_stats(self) -> None:
        self.prefetches_issued = 0
        self.prefetches_used = 0
