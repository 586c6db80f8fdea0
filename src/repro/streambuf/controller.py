"""The stream-buffer controller (Section 4.1).

One controller class implements every stream-buffer architecture the
paper evaluates, by composing an address predictor, an allocation filter,
and a scheduler:

==================  =========================  ==============  ============
Architecture        Predictor                  Allocation      Scheduling
==================  =========================  ==============  ============
Jouppi sequential   :class:`SequentialPredictor`  always       round-robin
Farkas PC-stride    ``TwoDeltaStrideTable``    two-miss        round-robin
PSB (this paper)    ``StrideFilteredMarkov``   two-miss /      round-robin /
                                               confidence      priority
==================  =========================  ==============  ============

Per cycle (``tick``): at most one stream buffer uses the shared predictor
port, and at most one prefetch launches — and only when the L1-L2 bus is
free at the start of the cycle.  Predictions are checked against every
buffer so streams never overlap; a duplicate prediction is dropped but
still advances the stream's speculative history, exactly as in the paper.
The check is one lookup in ``block_counts``, the block -> occupied-entry
count map all eight buffers share, which the entries' own transitions
keep current (see :mod:`repro.streambuf.buffer`).

The port's arbitration is not redone when its answer cannot have
changed.  ``predictor_port`` holds the standing decision:
:data:`ARBITRATE` (arbitrate at the next tick), ``None`` (no buffer can
take a prediction, so the port idles) or the buffer whose prediction
was just dropped as a duplicate, which predicts again at the next tick
without a new arbitration.  A dropped duplicate changes none of the
pick's inputs, so that buffer would win again — under a scheduler whose
pick depends only on buffer state (``Scheduler.stateless``).  Every
event that can change the inputs (a probe hit, an overtaken
prediction, a demand miss, warming, a taken entry, an exhausted stream)
resets the decision to :data:`ARBITRATE`.  The invariant
``streambuf.port`` (:func:`repro.integrity.invariants.check_stream_buffers`)
checks a standing decision against a fresh pick.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Optional, Tuple

from repro.config import PrefetchConfig, PrefetcherKind, StreamBufferConfig
from repro.memory.hierarchy import NEVER, MemoryHierarchy, PrefetcherPort
from repro.predictors.base import AddressPredictor, StreamState
from repro.predictors.sfm import StrideFilteredMarkovPredictor
from repro.predictors.stride import TwoDeltaStrideTable
from repro.streambuf.allocation import AllocationFilter, make_allocation_filter
from repro.streambuf.buffer import IN_FLIGHT, PREDICTED, READY, StreamBuffer
from repro.streambuf.scheduling import Scheduler, make_scheduler
from repro.streambuf.sharing import SharingPolicy, make_sharing_policy


class SequentialPredictor(AddressPredictor):
    """Jouppi's original streaming: always the next sequential block."""

    def __init__(self, block_size: int) -> None:
        self.block_size = block_size

    def train(self, pc: int, address: int) -> bool:
        """Sequential streaming learns nothing from misses."""
        return False

    def make_stream_state(self, pc: int, address: int) -> StreamState:
        """A stream that walks forward one block at a time."""
        return StreamState(pc, address, stride=self.block_size)

    def next_prediction(self, state: StreamState) -> Optional[int]:
        """Advance the stream to the next sequential block."""
        state.last_address += self.block_size
        return state.last_address


#: Sentinel "no refresh pending" cycle (shared with the skip-ahead horizon).
_NEVER = NEVER


class PortDecision(Enum):
    """The predictor-port decision that is neither idle nor a buffer."""

    ARBITRATE = "arbitrate"


#: ``predictor_port`` value: arbitrate afresh at the next tick.
ARBITRATE = PortDecision.ARBITRATE


class StreamBufferController(PrefetcherPort):
    """Arbitrates 8 stream buffers over one predictor port and one bus."""

    def __init__(
        self,
        config: StreamBufferConfig,
        predictor: AddressPredictor,
        block_size: int,
    ) -> None:
        self.config = config
        self.predictor = predictor
        self.block_size = block_size
        #: Entry-ownership policy (fixed partition or shared pool); see
        #: :mod:`repro.streambuf.sharing`.  Under a pooled policy the
        #: buffers start empty and grow on demand from ``self.pool``.
        self.sharing: SharingPolicy = make_sharing_policy(config)
        initial_entries = 0 if self.sharing.pooled else config.entries_per_buffer
        #: Block -> number of occupied entries holding it, across every
        #: buffer (a multiset: overlap checking may be off).  The buffers
        #: share this map and their entries keep it current.
        self.block_counts: Dict[int, int] = {}
        self.buffers: List[StreamBuffer] = [
            StreamBuffer(
                i, initial_entries, config.priority_max, self.block_counts
            )
            for i in range(config.num_buffers)
        ]
        self.sharing.bind(self)
        #: The shared :class:`~repro.streambuf.sharing.EntryPool`, or
        #: ``None`` under fixed partitioning.
        self.pool = self.sharing.pool
        self.allocation_filter: AllocationFilter = make_allocation_filter(config)
        self.scheduler: Scheduler = make_scheduler(config)
        self.hierarchy: Optional[MemoryHierarchy] = None
        self._training_epoch = 0
        self._misses_since_aging = 0
        #: Fast-forwarded misses warmed so far; detuned warming
        #: continues its alternation from this count's parity.
        self._warm_calls = 0
        self._any_allocated = False
        #: The standing predictor-port decision: :data:`ARBITRATE`,
        #: ``None`` (nothing can take a prediction) or the buffer that
        #: predicts next without arbitration (see the module docstring).
        self.predictor_port = ARBITRATE
        # Steady-state fast path: when a tick finds no prefetch to
        # launch, skip the scan until a fresh prediction is held.
        self._prefetch_skip = False
        self._next_refresh = _NEVER
        #: Optional :class:`repro.obs.EventTrace`; when set, allocation,
        #: prefetch-lifecycle, and priority events are emitted through it.
        self.obs_trace = None
        # Statistics.
        self.prefetches_issued = 0
        self.prefetches_used = 0
        self.prefetches_discarded = 0
        self.duplicate_predictions = 0
        self.predictions_made = 0
        self.allocations = 0
        self.allocations_denied = 0
        self.predicted_overtaken = 0

    def attach(self, hierarchy: MemoryHierarchy) -> None:
        """Wire this controller to the memory hierarchy it prefetches into."""
        self.hierarchy = hierarchy
        hierarchy.prefetcher = self

    def _align(self, address: int) -> int:
        return address & ~(self.block_size - 1)

    # ------------------------------------------------------------------
    # Lookup path (PrefetcherPort.probe)
    # ------------------------------------------------------------------

    def probe(self, block_addr: int, cycle: int) -> Optional[int]:
        """Tag match across all buffers.

        Fully associative over every entry by default (Farkas et al.,
        the paper's model); with ``associative_lookup`` disabled only
        each buffer's FIFO head is matchable (Jouppi's original design),
        so any out-of-order touch misses and kills the stream's utility.
        """
        if block_addr not in self.block_counts:
            return None
        associative = self.config.associative_lookup
        for buffer in self.buffers:
            if not buffer.allocated:
                continue
            if associative:
                entry = buffer.find_block(block_addr)
            else:
                entry = buffer.head_entry()
                if entry is not None and entry.block != block_addr:
                    entry = None
            if entry is None:
                continue
            entry.refresh(cycle)
            if entry.state is PREDICTED:
                # Tag present but the prefetch never launched; let the
                # demand miss fetch it and drop the stale prediction.
                entry.clear()
                self.sharing.release_entry(buffer, entry)
                self.predicted_overtaken += 1
                self.predictor_port = ARBITRATE
                return None
            ready = entry.ready_cycle
            entry.clear()
            self.sharing.release_entry(buffer, entry)
            buffer.note_hit(cycle, self.config.priority_hit_bonus)
            self.prefetches_used += 1
            self.predictor_port = ARBITRATE  # a freed entry, a new priority
            trace = self.obs_trace
            if trace is not None:
                if trace.wants("prefetch"):
                    trace.emit(
                        cycle, "prefetch", "hit",
                        buffer=buffer.index, block=block_addr,
                    )
                if trace.wants("priority"):
                    trace.emit(
                        cycle, "priority", "bump",
                        buffer=buffer.index, priority=int(buffer.priority),
                    )
            return ready
        return None

    # ------------------------------------------------------------------
    # Miss path: training, aging, and allocation
    # ------------------------------------------------------------------

    def on_l1_miss(self, pc: int, addr: int, cycle: int, sb_hit: bool) -> None:
        """Write-back update for a demand L1 miss (Section 4.2/4.3)."""
        block = self._align(addr)
        self.predictor.train(pc, block)
        self._training_epoch += 1
        # Training may un-exhaust streams; aging and allocation change
        # priorities and buffers.
        self.predictor_port = ARBITRATE
        if sb_hit:
            return
        # This miss also missed the stream buffers: it is an allocation
        # request, which both ages priorities and may claim a buffer.
        if self._age_priorities():
            trace = self.obs_trace
            if trace is not None and trace.wants("priority"):
                trace.emit(
                    cycle, "priority", "age",
                    amount=self.config.priority_age_amount,
                )
        self._try_allocate(pc, block, cycle)

    def _age_priorities(self, misses: int = 1) -> int:
        """Count ``misses`` allocation requests; age every buffer's
        priority once per ``priority_age_period`` of them.  Returns how
        many agings fell due.

        The agings land as one decrement per buffer: clamped decrements
        compose, so ``k`` agings of ``a`` are one decrement of ``k * a``.
        """
        config = self.config
        self._misses_since_aging += misses
        if self._misses_since_aging < config.priority_age_period:
            return 0
        agings, self._misses_since_aging = divmod(
            self._misses_since_aging, config.priority_age_period
        )
        amount = agings * config.priority_age_amount
        for buffer in self.buffers:
            buffer.priority.decrement(amount)
        return agings

    def warm(self, misses: List[Tuple[int, int]], detuned: bool) -> None:
        """Fast-forward warming: train the predictor, skip allocation.

        Stream-buffer allocations are transient relative to a sampling
        gap (each measured window's warm-up rebuilds them from the warm
        predictor tables), so only learned state observes the
        fast-forwarded misses.  Full rate trains the predictor on every
        miss.  Detuned (timing-aware) warming reflects that in detailed
        execution a working stream buffer absorbs many of those misses,
        so accuracy confidence and allocation streaks climb more slowly:
        the address/history tables still observe every miss, but
        confidence moves on alternate misses only, and buffer priorities
        age on the schedule the detailed miss stream would drive.

        Either rate is one
        :meth:`~repro.predictors.base.AddressPredictor.train_all` call;
        the alternation continues across stretches from the count of
        misses warmed before, and detuned priorities age once for the
        whole stretch.
        """
        if not misses:
            return
        count = len(misses)
        self.predictor.train_all(
            misses,
            ~(self.block_size - 1),
            self._warm_calls & 1 if detuned else None,
        )
        self._warm_calls += count
        if detuned:
            self._age_priorities(count)
        self._training_epoch += count
        self.predictor_port = ARBITRATE

    def _try_allocate(self, pc: int, block: int, cycle: int) -> None:
        # A load that already owns a stream must not thrash it: while its
        # buffer is still *working* (predictions pending or prefetches in
        # flight) the allocation request is denied — the stream simply
        # has not caught up yet.  Only an idle (stale or fully consumed)
        # stream may be restarted, and then admission is still filtered.
        own = None
        for buffer in self.buffers:
            if buffer.allocated and buffer.state is not None and buffer.state.pc == pc:
                own = buffer
                break
        if own is not None:
            busy = any(
                entry.state is PREDICTED or entry.state is IN_FLIGHT
                for entry in own.entries
            )
            if busy or not self.allocation_filter.admits(pc, self.predictor):
                self.allocations_denied += 1
                self._emit_alloc_denied(
                    cycle, pc, "own-busy" if busy else "filter"
                )
                return
            victim = own
        else:
            victim = self.allocation_filter.choose_victim(
                pc, self.predictor, self.buffers
            )
            if victim is None:
                self.allocations_denied += 1
                self._emit_alloc_denied(cycle, pc, "no-victim")
                return
        self._discard_unused(victim)
        # Return the victim's pooled entries *before* the new stream
        # claims the buffer: the freed credit must be available to the
        # same cycle's allocation and prediction passes, not the next
        # one.  (Under fixed sizing this is a no-op either way.)
        self.sharing.release_stream(victim)
        state = self.predictor.make_stream_state(pc, block)
        victim.allocate(state, cycle, priority=state.confidence)
        self.allocations += 1
        self._any_allocated = True
        trace = self.obs_trace
        if trace is not None and trace.wants("alloc"):
            trace.emit(
                cycle, "alloc", "allocate",
                buffer=victim.index, pc=pc, block=block,
                priority=int(victim.priority),
            )

    def _emit_alloc_denied(self, cycle: int, pc: int, reason: str) -> None:
        """Trace one denied allocation request (reason: why it lost)."""
        trace = self.obs_trace
        if trace is not None and trace.wants("alloc"):
            trace.emit(cycle, "alloc", "deny", pc=pc, reason=reason)

    def _discard_unused(self, buffer: StreamBuffer) -> None:
        """Count prefetched-but-never-used entries lost to reallocation."""
        for entry in buffer.entries:
            if entry.state is IN_FLIGHT or entry.state is READY:
                self.prefetches_discarded += 1

    # ------------------------------------------------------------------
    # Per-cycle operation: one prediction, one prefetch
    # ------------------------------------------------------------------

    def tick(self, cycle: int) -> None:
        """One controller cycle: refresh fills, predict once, prefetch once.

        The core calls it every cycle it steps, and through its idle
        stretches :meth:`PrefetcherPort.run` calls it at each cycle
        :meth:`next_event_cycle` names.  The prediction is skipped while
        ``predictor_port`` is ``None``.
        """
        if not self._any_allocated:
            return
        if cycle >= self._next_refresh:
            trace = self.obs_trace
            emit_fill = trace is not None and trace.wants("prefetch")
            next_refresh = _NEVER
            for buffer in self.buffers:
                for entry in buffer.entries:
                    if entry.state is not IN_FLIGHT:
                        continue
                    entry.refresh(cycle)
                    if entry.state is IN_FLIGHT:
                        if entry.ready_cycle < next_refresh:
                            next_refresh = entry.ready_cycle
                    elif emit_fill:
                        trace.emit(
                            cycle, "prefetch", "fill",
                            buffer=buffer.index, block=entry.block,
                        )
            self._next_refresh = next_refresh
        if self.predictor_port is not None:
            self._predict_one(cycle)
        if not self._prefetch_skip:
            self._prefetch_one(cycle)

    def next_event_cycle(self, cycle: int) -> int:
        """Earliest cycle >= ``cycle`` at which :meth:`tick` could act.

        Mirrors :meth:`tick`'s own gating exactly: a port decision other
        than ``None`` means a prediction this cycle; pending prefetches
        wake at the next free L1-L2 bus slot; in-flight fills wake the
        refresh scan at ``_next_refresh``.  Pure query — through the
        core's idle stretches :meth:`PrefetcherPort.run` steps by it.
        """
        if not self._any_allocated:
            return _NEVER
        if self.predictor_port is not None:
            return cycle
        horizon = self._next_refresh
        if not self._prefetch_skip and self.hierarchy is not None:
            slot = self.hierarchy.next_prefetch_slot(cycle)
            if slot < horizon:
                horizon = slot
        return horizon

    def _predict_one(self, cycle: int) -> None:
        epoch = self._training_epoch
        scheduler = self.scheduler
        buffer = self.predictor_port
        if buffer is ARBITRATE:
            buffer = scheduler.pick_for_prediction(
                self.buffers, self.sharing.prediction_filter(epoch)
            )
        else:
            scheduler.prediction_grants += 1  # the standing winner's grant
        if buffer is None or buffer.state is None:
            # Nothing can take a prediction; skip until an entry frees,
            # a training event lands, or a (re)allocation happens.
            self.predictor_port = None
            return
        predicted = self.predictor.next_prediction(buffer.state)
        if predicted is None:
            buffer.mark_exhausted(epoch)
            self.predictor_port = ARBITRATE
            return
        self.predictions_made += 1
        block = self._align(predicted)
        if self.config.check_overlap and block in self.block_counts:
            # Overlapping streams are forbidden: drop the prediction
            # (history already advanced — Section 4.1).  Nothing the
            # pick reads changed, so a stateless scheduler's winner
            # stands for the next tick.
            self.duplicate_predictions += 1
            self.predictor_port = buffer if scheduler.stateless else ARBITRATE
            trace = self.obs_trace
            if trace is not None and trace.wants("prefetch"):
                trace.emit(
                    cycle, "prefetch", "drop",
                    buffer=buffer.index, block=block,
                )
            return
        self.predictor_port = ARBITRATE
        entry = self.sharing.take_entry(buffer, cycle)
        if entry is not None:
            entry.hold_prediction(block, cycle)
            self._prefetch_skip = False  # fresh work for the bus

    def _prefetch_one(self, cycle: int) -> None:
        if self.hierarchy is None or not self.hierarchy.can_prefetch(cycle):
            return
        buffer = self.scheduler.pick_for_prefetch(
            self.buffers, lambda b: b.allocated and b.prefetchable_entry() is not None
        )
        if buffer is None:
            # No predicted entries anywhere; skip until one is held.
            self._prefetch_skip = True
            return
        entry = buffer.prefetchable_entry()
        if entry is None:
            return
        skip_tlb = False
        if self.config.cache_tlb_translations:
            # Section 4.5: the buffer caches one page translation and
            # only consults the TLB when the stream leaves that page.
            page = self.hierarchy.tlb.page_of(entry.block)
            skip_tlb = buffer.tlb_page == page
            buffer.tlb_page = page
        ready = self.hierarchy.issue_prefetch(entry.block, cycle, skip_tlb=skip_tlb)
        self.prefetches_issued += 1
        trace = self.obs_trace
        if trace is not None and trace.wants("prefetch"):
            trace.emit(
                cycle, "prefetch", "issue",
                buffer=buffer.index, block=entry.block, ready=ready,
            )
        entry.mark_in_flight(ready)
        if ready < self._next_refresh:
            self._next_refresh = ready

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    @property
    def accuracy(self) -> float:
        """Prefetch accuracy: prefetches used / prefetches made (Fig. 6)."""
        if self.prefetches_issued == 0:
            return 0.0
        return min(1.0, self.prefetches_used / self.prefetches_issued)

    def reset_stats(self) -> None:
        """Zero counters (warm-up boundary); learned state is preserved."""
        self.prefetches_issued = 0
        self.prefetches_used = 0
        self.prefetches_discarded = 0
        self.duplicate_predictions = 0
        self.predictions_made = 0
        self.allocations = 0
        self.allocations_denied = 0
        self.predicted_overtaken = 0
        if self.pool is not None:
            self.pool.reset_stats()


def build_prefetcher(config: PrefetchConfig, block_size: int):
    """Construct the prefetcher architecture selected by ``config``.

    Stream-buffer kinds return a :class:`StreamBufferController`; the
    demand-based prior-art kinds (next-line, Joseph-Grunwald Markov)
    return their own :class:`~repro.memory.hierarchy.PrefetcherPort`
    implementations.  All expose ``attach``, ``reset_stats``,
    ``prefetches_issued``/``prefetches_used``, and ``accuracy``.
    """
    from repro.demandpf.markov_prefetcher import DemandMarkovPrefetcher
    from repro.demandpf.nextline import NextLinePrefetcher
    from repro.predictors.mindelta import MinimumDeltaPredictor

    if config.kind == PrefetcherKind.NONE:
        return None
    if config.kind == PrefetcherKind.NEXT_LINE:
        return NextLinePrefetcher(block_size)
    if config.kind == PrefetcherKind.DEMAND_MARKOV:
        return DemandMarkovPrefetcher(
            block_size, table_entries=config.markov.entries
        )
    if config.kind == PrefetcherKind.SEQUENTIAL:
        predictor: AddressPredictor = SequentialPredictor(block_size)
    elif config.kind == PrefetcherKind.STRIDE_PC:
        predictor = TwoDeltaStrideTable(config.stride)
    elif config.kind == PrefetcherKind.MIN_DELTA:
        predictor = MinimumDeltaPredictor(block_size)
    elif config.kind == PrefetcherKind.PREDICTOR_DIRECTED:
        predictor = StrideFilteredMarkovPredictor(config.stride, config.markov)
    else:
        raise ValueError(f"unknown prefetcher kind: {config.kind}")
    return StreamBufferController(config.stream_buffers, predictor, block_size)
