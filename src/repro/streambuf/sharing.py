"""Online sharing of the stream-buffer entry pool (beyond the paper).

The paper fixes the prefetch hardware at 8 stream buffers x 4 entries
each.  This module relaxes that partition: the 32 entries become one
shared pool allocated online across the live streams, behind a small
policy interface (:class:`SharingPolicy`):

- ``fixed`` keeps the paper's static partition.  It is the default and
  is bit-identical to the pre-sharing simulator: buffers own their
  entries statically and no pool exists.
- ``harmonic`` admits every prediction while free pool credit remains
  and, once the pool is full, evicts from the stream holding the
  *longest* queue — longest-queue eviction, the core mechanism of the
  (2+ln n)-competitive online buffer-sharing policy (arXiv:2511.06514).
  A stream may only steal from a strictly longer queue, so depths stay
  balanced under contention while an under-subscribed pool lets a hot
  stream run arbitrarily deep.
- ``credence`` augments harmonic with a prediction signal
  (arXiv:2401.02801), using the per-stream priority counters the
  simulator already maintains as its confidence oracle, consulted as a
  binary trusted/untrusted advice bit: a stream whose predictions keep
  producing hits steals from untrusted streams freely, regardless of
  queue length, while harmonic's longest-queue rule arbitrates within
  a trust class — trusting the predictor when it is informative while
  retaining the robust policy's behaviour when it is not.

Pooled policies transfer :class:`~repro.streambuf.buffer.StreamBufferEntry`
objects between buffers: a buffer's ``entries`` list holds exactly the
entries it currently owns, so the entry queries (refresh, tag match,
prefetchable/oldest) work unchanged on a variable-depth queue.  Each
entry also points at its ``owner``, whose occupancy index it keeps
current, so a transfer clears the entry first (the old owner's counts
drop) and only then re-points it.
Conservation — entries in use never exceed the pool size and no entry is
owned by two streams — and the occupancy index are enforced by
:func:`repro.integrity.invariants.check_stream_buffers`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from repro.config import BufferSharing, StreamBufferConfig
from repro.streambuf.buffer import (
    FREE,
    IN_FLIGHT,
    READY,
    StreamBuffer,
    StreamBufferEntry,
)
from repro.streambuf.scheduling import Eligible


class EntryPool:
    """Occupancy bookkeeping and statistics for the shared entry pool."""

    def __init__(self, size: int) -> None:
        self.size = size
        #: Entries currently owned by some buffer.
        self.allocated = 0
        # Statistics (reset at the warm-up boundary).
        self.acquires = 0  # grants served from free pool credit
        self.steals = 0  # grants served by evicting another stream
        self.denials = 0  # requests the policy refused
        self.releases = 0  # entries returned (hits, drops, stream death)
        self.evicted_inflight = 0  # stolen entries whose prefetch was live

    @property
    def free(self) -> int:
        """Pool credit not currently backing any buffer entry."""
        return self.size - self.allocated

    def reset_stats(self) -> None:
        """Zero the event counters; occupancy is state, not a statistic."""
        self.acquires = 0
        self.steals = 0
        self.denials = 0
        self.releases = 0
        self.evicted_inflight = 0

    def __repr__(self) -> str:
        return f"EntryPool({self.allocated}/{self.size} allocated)"


class SharingPolicy(ABC):
    """How stream-buffer entries are partitioned across streams.

    The controller consults the policy at exactly three points: which
    buffers may compete for the predictor port (the scheduler applies
    :meth:`prediction_filter`), where the entry backing a fresh
    prediction comes from (:meth:`take_entry`), and what happens to
    entries a stream no longer needs (:meth:`release_entry` /
    :meth:`release_stream`).
    """

    #: True when entries live in a shared pool rather than per buffer.
    pooled: bool = False

    def __init__(self) -> None:
        #: The shared pool, or ``None`` under fixed partitioning.
        self.pool: Optional[EntryPool] = None
        self._controller = None

    def bind(self, controller) -> None:
        """Attach the owning controller (for buffers, stats, tracing)."""
        self._controller = controller

    @abstractmethod
    def prediction_filter(self, epoch: int) -> Eligible:
        """The predictor-port predicate at training epoch ``epoch``.

        The scheduler calls it for every buffer on every predicting
        cycle, so each policy returns one flat test over the stored
        occupancy rather than a chain of calls.
        """

    @abstractmethod
    def take_entry(
        self, buffer: StreamBuffer, cycle: int
    ) -> Optional[StreamBufferEntry]:
        """An entry for ``buffer`` to hold a fresh prediction, or None."""

    def release_entry(
        self, buffer: StreamBuffer, entry: StreamBufferEntry
    ) -> None:
        """Return one consumed (already cleared) entry to the pool."""

    def release_stream(self, buffer: StreamBuffer) -> None:
        """Return every entry owned by ``buffer`` (stream death)."""


class FixedSharing(SharingPolicy):
    """The paper's static 8 x 4 partition: each buffer owns its entries.

    Every method applies the buffer's own static-entry behaviour, so a
    controller built with this policy executes exactly the pre-sharing
    code path (the bit-identity tests assert it).
    """

    pooled = False

    def prediction_filter(self, epoch: int) -> Eligible:
        """A free entry of the buffer's own, on a live stream.

        The stream must also not be exhausted at ``epoch``.
        """

        def eligible(buffer: StreamBuffer) -> bool:
            return (
                buffer.occupied_count < len(buffer.entries)
                and buffer.allocated
                and buffer.state is not None
                and buffer.exhausted_epoch != epoch
            )

        return eligible

    def take_entry(
        self, buffer: StreamBuffer, cycle: int
    ) -> Optional[StreamBufferEntry]:
        """A statically owned FREE entry, exactly as before sharing."""
        return buffer.free_entry()


class PooledSharing(SharingPolicy):
    """Common machinery for policies drawing from one shared pool.

    Buffers start with zero entries and grow on demand: free pool credit
    is always granted; a full pool asks the concrete policy for a victim
    stream (:meth:`_choose_victim`) and transfers that stream's youngest
    entry to the requester.  Subclasses implement only the victim choice.
    """

    pooled = True

    def __init__(self, config: StreamBufferConfig) -> None:
        super().__init__()
        self.config = config
        self.pool = EntryPool(config.pool_size)

    def prediction_filter(self, epoch: int) -> Eligible:
        """Port eligibility under pooling: entry available or winnable."""
        pool = self.pool
        choose_victim = self._choose_victim

        def eligible(buffer: StreamBuffer) -> bool:
            if (
                not buffer.allocated
                or buffer.state is None
                or buffer.exhausted_epoch == epoch
            ):
                return False
            return (
                buffer.occupied_count < len(buffer.entries)
                or pool.allocated < pool.size
                or choose_victim(buffer) is not None
            )

        return eligible

    def take_entry(
        self, buffer: StreamBuffer, cycle: int
    ) -> Optional[StreamBufferEntry]:
        """Grant from free credit, else evict per the concrete policy."""
        entry = buffer.free_entry()
        if entry is not None:
            return entry
        pool = self.pool
        if pool.free > 0:
            pool.allocated += 1
            pool.acquires += 1
            entry = StreamBufferEntry(buffer)
            buffer.entries.append(entry)
            return entry
        victim = self._choose_victim(buffer)
        if victim is None:
            pool.denials += 1
            return None
        return self._steal(victim, buffer, cycle)

    def release_entry(
        self, buffer: StreamBuffer, entry: StreamBufferEntry
    ) -> None:
        """A consumed entry leaves its buffer and frees pool credit."""
        buffer.entries.remove(entry)
        self.pool.allocated -= 1
        self.pool.releases += 1

    def release_stream(self, buffer: StreamBuffer) -> None:
        """Stream death returns the whole queue to the pool at once."""
        entries = buffer.entries
        if entries:
            for entry in entries:
                entry.clear()  # drop the dead stream's blocks from the index
            self.pool.allocated -= len(entries)
            self.pool.releases += len(entries)
            del entries[:]

    # -- eviction ------------------------------------------------------

    @abstractmethod
    def _choose_victim(
        self, requester: StreamBuffer
    ) -> Optional[StreamBuffer]:
        """The stream to evict from for ``requester``, or None to deny."""

    def _steal(
        self, victim: StreamBuffer, requester: StreamBuffer, cycle: int
    ) -> StreamBufferEntry:
        """Move the victim's youngest entry to the requester, cleared.

        The youngest (most recently predicted) entry is the deepest
        speculation in the victim's stream — evicting it forfeits the
        least likely hit.  A stolen in-flight or ready prefetch counts
        as discarded, mirroring reallocation's accounting.
        """
        entry = None
        for candidate in victim.entries:
            if candidate.state is FREE:
                entry = candidate  # a free entry is cheaper than any eviction
                break
            if entry is None or candidate.predicted_cycle > entry.predicted_cycle:
                entry = candidate
        assert entry is not None, "victim with no entries chosen for eviction"
        controller = self._controller
        if entry.state is IN_FLIGHT or entry.state is READY:
            self.pool.evicted_inflight += 1
            if controller is not None:
                controller.prefetches_discarded += 1
        trace = None if controller is None else controller.obs_trace
        if trace is not None and trace.wants("pool"):
            trace.emit(
                cycle, "pool", "steal",
                victim=victim.index, to=requester.index,
                block=entry.block, state=entry.state.value,
            )
        victim.entries.remove(entry)
        entry.clear()  # while still the victim's, so its counts drop
        entry.owner = requester
        requester.entries.append(entry)
        self.pool.steals += 1
        return entry


#: A steal must *strictly reduce* queue imbalance: the victim needs
#: more entries than the requester by this margin, so the post-steal
#: depths are still ordered and never swap back.  With a bare "strictly
#: longer" rule two queues differing by one ping-pong the same entry
#: forever — each bounce discarding a live prefetch and re-issuing it
#: on the bus — which livelocks the whole machine.  Two is the minimum
#: that terminates; three adds hysteresis against credit-slosh between
#: a draining stream and a stacking one (each slosh steal evicts a
#: purchased prefetch, and the bus is the scarce resource).
_STEAL_MARGIN = 3


class HarmonicSharing(PooledSharing):
    """Longest-queue eviction (arXiv:2511.06514).

    When the pool is full the stream holding the most entries loses its
    youngest one — but only to a queue shorter by :data:`_STEAL_MARGIN`
    or more, so every eviction strictly rebalances depths and the churn
    terminates.  With slack in the pool every request is granted, which
    is where the win over fixed partitioning comes from: one or two hot
    streams can run 10+ entries deep while idle streams hold nothing.
    """

    def _choose_victim(
        self, requester: StreamBuffer
    ) -> Optional[StreamBuffer]:
        """The longest queue (LRU breaking ties), if longer by margin."""
        controller = self._controller
        victim = None
        victim_key = (0, 0, 0)
        for buffer in controller.buffers:
            occupancy = len(buffer.entries)
            if occupancy == 0:
                continue
            key = (occupancy, -buffer.last_use_cycle, -buffer.index)
            if victim is None or key > victim_key:
                victim = buffer
                victim_key = key
        if victim is None or victim is requester:
            return None
        if len(victim.entries) < len(requester.entries) + _STEAL_MARGIN:
            return None
        return victim


class CredenceSharing(PooledSharing):
    """Prediction-augmented sharing (arXiv:2401.02801).

    The prediction signal is the per-stream priority counter — bumped on
    every stream-buffer hit, aged on demand misses — i.e. the live
    confidence that this stream's predictions are paying off.  Following
    the learning-augmented literature, the signal is consumed as a
    *binary* advice bit: a stream is **trusted** when its counter sits
    in the upper half of the priority range, untrusted below.  A trusted
    requester evicts from untrusted streams freely (longest queue, then
    LRU); an untrusted requester is denied rather than served by
    evicting a trusted stream, so a stream whose predictions keep paying
    off holds its deep queue against streams the predictor says are
    worth less.  *Within* a trust class harmonic's margin rule applies
    — which is what keeps one trusted stream from monopolising the pool
    against another.  (A raw greater/less comparison does exactly that:
    the first stream to saturate its counter strip-mines every slightly
    less confident peer, and the starved peer can never earn the hits
    to climb back — the classic advice-following failure mode the
    binary consultation avoids.)  With a flat confidence landscape
    every stream lands in one class and the policy degrades to exactly
    :class:`HarmonicSharing`, retaining its robustness.
    """

    def _trusted(self, buffer: StreamBuffer) -> bool:
        """The advice bit: counter in the upper half of its range."""
        return 2 * int(buffer.priority) >= self.config.priority_max

    def _choose_victim(
        self, requester: StreamBuffer
    ) -> Optional[StreamBuffer]:
        """Untrusted streams first; harmonic's rule within a trust class."""
        controller = self._controller
        requester_trusted = self._trusted(requester)
        victim = None
        victim_key = (0, 0, 0)
        fallback = None
        fallback_key = (0, 0, 0)
        for buffer in controller.buffers:
            occupancy = len(buffer.entries)
            if occupancy == 0 or buffer is requester:
                continue
            key = (occupancy, -buffer.last_use_cycle, -buffer.index)
            if self._trusted(buffer):
                if not requester_trusted:
                    continue  # never evict trusted for untrusted
                if fallback is None or key > fallback_key:
                    fallback = buffer
                    fallback_key = key
            elif requester_trusted:
                if victim is None or key > victim_key:
                    victim = buffer
                    victim_key = key
            else:
                if fallback is None or key > fallback_key:
                    fallback = buffer
                    fallback_key = key
        if victim is not None:
            return victim
        if fallback is None:
            return None
        if len(fallback.entries) < len(requester.entries) + _STEAL_MARGIN:
            return None
        return fallback


def make_sharing_policy(config: StreamBufferConfig) -> SharingPolicy:
    """Build the sharing policy selected by ``config.sharing``."""
    if config.sharing == BufferSharing.FIXED:
        return FixedSharing()
    if config.sharing == BufferSharing.HARMONIC:
        return HarmonicSharing(config)
    if config.sharing == BufferSharing.CREDENCE:
        return CredenceSharing(config)
    raise ValueError(f"unknown buffer-sharing policy: {config.sharing}")
