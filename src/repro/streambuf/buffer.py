"""A single stream buffer and its entries (Section 4.1).

Each of the 8 buffers holds its entries and the per-stream prediction
history (:class:`~repro.predictors.base.StreamState`).  Under the
paper's fixed partitioning every buffer statically owns 4 entries;
under a pooled sharing policy (:mod:`repro.streambuf.sharing`) the
``entries`` list grows and shrinks as the stream acquires and releases
pool credit.  Entries move through a small lifecycle::

    FREE -> PREDICTED -> IN_FLIGHT -> READY -> (hit) FREE

Lookups are fully associative across all buffers and entries (Farkas et
al.'s enhancement, which the paper models).

Occupancy is stored, not rescanned: the only transitions into and out
of FREE (:meth:`StreamBufferEntry.hold_prediction`,
:meth:`StreamBufferEntry.clear`) update the owning buffer's
``occupied_count`` and the ``block_counts`` map shared by all of a
controller's buffers, which per-cycle arbitration and the overlap
check read.  The invariant ``streambuf.index``
(:func:`repro.integrity.invariants.check_stream_buffers`) recounts both.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Optional

from repro.predictors.base import StreamState
from repro.predictors.saturating import SaturatingCounter


class EntryState(Enum):
    """Lifecycle state of one stream-buffer entry."""

    FREE = "free"
    PREDICTED = "predicted"  # has an address, waiting for the bus
    IN_FLIGHT = "in-flight"  # prefetch issued, data not yet back
    READY = "ready"  # data resident in the entry


# Module-level aliases: the hot paths compare states by identity, which
# skips the enum class's attribute lookup on every test.
FREE = EntryState.FREE
PREDICTED = EntryState.PREDICTED
IN_FLIGHT = EntryState.IN_FLIGHT
READY = EntryState.READY


def _uncount(block_counts: Dict[int, int], block: int) -> None:
    """Remove one occurrence of ``block`` from the occupancy multiset."""
    left = block_counts[block] - 1
    if left:
        block_counts[block] = left
    else:
        del block_counts[block]


class StreamBufferEntry:
    """One cache-block slot in a stream buffer.

    ``owner`` is the :class:`StreamBuffer` whose occupancy index this
    entry keeps current; an entry built without one keeps no index.
    Whoever moves an entry between buffers clears it first (so the old
    owner's counts drop) and then re-points ``owner``.
    """

    __slots__ = ("state", "block", "ready_cycle", "predicted_cycle", "owner")

    def __init__(self, owner: Optional["StreamBuffer"] = None) -> None:
        self.state = FREE
        self.block = 0
        self.ready_cycle = 0
        self.predicted_cycle = 0
        self.owner = owner

    def hold_prediction(self, block: int, cycle: int) -> None:
        """Latch a predicted block address, waiting for the bus."""
        owner = self.owner
        if owner is not None:
            block_counts = owner.block_counts
            if self.state is FREE:
                owner.occupied_count += 1
            else:
                _uncount(block_counts, self.block)
            block_counts[block] = block_counts.get(block, 0) + 1
        self.state = PREDICTED
        self.block = block
        self.predicted_cycle = cycle

    def mark_in_flight(self, ready_cycle: int) -> None:
        """The prefetch launched; data arrives at ``ready_cycle``."""
        self.state = IN_FLIGHT
        self.ready_cycle = ready_cycle

    def refresh(self, cycle: int) -> None:
        """Promote IN_FLIGHT to READY once the data has arrived."""
        if self.state is IN_FLIGHT and self.ready_cycle <= cycle:
            self.state = READY

    def clear(self) -> None:
        """Reset to FREE, dropping any held block."""
        if self.state is not FREE:
            owner = self.owner
            if owner is not None:
                owner.occupied_count -= 1
                _uncount(owner.block_counts, self.block)
        self.state = FREE
        self.block = 0
        self.ready_cycle = 0
        self.predicted_cycle = 0

    @property
    def occupied(self) -> bool:
        """True when this entry holds a block in any non-FREE state."""
        return self.state is not FREE

    def __repr__(self) -> str:
        return f"Entry({self.state.value}, block={self.block:#x})"


class StreamBuffer:
    """One stream: N entries plus the stream's speculative predictor state."""

    def __init__(
        self,
        index: int,
        num_entries: int,
        priority_max: int,
        block_counts: Optional[Dict[int, int]] = None,
    ) -> None:
        self.index = index
        #: Entries in a non-FREE state, kept by the entries' transitions.
        self.occupied_count = 0
        #: Block -> occupied entries holding it: the controller's map,
        #: shared by all of its buffers; a standalone buffer gets its own.
        self.block_counts: Dict[int, int] = (
            {} if block_counts is None else block_counts
        )
        self.entries: List[StreamBufferEntry] = [
            StreamBufferEntry(self) for _ in range(num_entries)
        ]
        self.state: Optional[StreamState] = None
        self.priority = SaturatingCounter(maximum=priority_max)
        self.allocated = False
        self.exhausted_epoch: Optional[int] = None
        self.last_use_cycle = 0
        self.allocations = 0
        self.hits = 0
        #: Page whose TLB translation this buffer caches (Section 4.5);
        #: None means "no cached translation".
        self.tlb_page: Optional[int] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def allocate(self, state: StreamState, cycle: int, priority: int = 0) -> None:
        """Claim this buffer for a new stream, discarding old entries."""
        for entry in self.entries:
            entry.clear()
        self.state = state
        self.priority.set(priority)
        self.allocated = True
        self.exhausted_epoch = None
        self.last_use_cycle = cycle
        self.allocations += 1
        self.tlb_page = None

    def deallocate(self) -> None:
        """Release this buffer: drop the stream and clear every entry."""
        for entry in self.entries:
            entry.clear()
        self.state = None
        self.allocated = False
        self.exhausted_epoch = None

    # ------------------------------------------------------------------
    # Entry queries
    # ------------------------------------------------------------------

    def free_entry(self) -> Optional[StreamBufferEntry]:
        """An entry available to hold a new prediction, if any."""
        for entry in self.entries:
            if entry.state is FREE:
                return entry
        return None

    def prefetchable_entry(self) -> Optional[StreamBufferEntry]:
        """The oldest PREDICTED entry waiting for the bus, if any."""
        best = None
        for entry in self.entries:
            if entry.state is PREDICTED:
                if best is None or entry.predicted_cycle < best.predicted_cycle:
                    best = entry
        return best

    def find_block(self, block: int) -> Optional[StreamBufferEntry]:
        """Tag-match ``block`` against non-free entries."""
        for entry in self.entries:
            if entry.block == block and entry.state is not FREE:
                return entry
        return None

    def head_entry(self) -> Optional[StreamBufferEntry]:
        """The oldest occupied entry (the FIFO head, Jouppi's lookup).

        Age is the prediction order; with in-order consumption the entry
        predicted earliest is the stream's head.
        """
        head = None
        for entry in self.entries:
            if entry.state is FREE:
                continue
            if head is None or entry.predicted_cycle < head.predicted_cycle:
                head = entry
        return head

    def mark_exhausted(self, epoch: int) -> None:
        """The predictor had nothing to offer; retry after more training."""
        self.exhausted_epoch = epoch

    @property
    def occupied_entries(self) -> int:
        """Entries currently holding a block (queue depth).

        Counted from the entries themselves; :attr:`occupied_count` is
        the stored copy the hot paths read.
        """
        return sum(1 for entry in self.entries if entry.state is not FREE)

    def note_hit(self, cycle: int, bonus: int) -> None:
        """A demand lookup hit this buffer: bump priority, refresh LRU."""
        self.hits += 1
        self.priority.increment(bonus)
        self.last_use_cycle = cycle
        self.exhausted_epoch = None

    def __repr__(self) -> str:
        pc = f"{self.state.pc:#x}" if self.state is not None else "-"
        return (
            f"StreamBuffer(#{self.index}, pc={pc}, "
            f"priority={int(self.priority)}, entries={self.occupied_entries})"
        )
