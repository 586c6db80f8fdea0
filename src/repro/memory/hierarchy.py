"""The full memory hierarchy: L1D + stream buffers + unified L2 + DRAM.

Timing model (Section 5.1 of the paper):

- L1 data cache hit: ``hit_latency`` cycles (1 in the baseline).
- L1 miss: one request at a time crosses the L1-L2 bus (8 bytes/cycle);
  the L2 is pipelined ``l2_pipeline_depth`` accesses deep with a 12-cycle
  latency; the refill block then crosses the L1-L2 bus back.
- L2 miss: the request continues over the L2-memory bus (4 bytes/cycle)
  to a 120-cycle main memory.
- Stream buffers are probed in parallel with the L1 lookup, at the same
  latency.  A stream-buffer hit moves the block into the L1; a tag hit on
  a still-in-flight prefetch hands the block to an L1 MSHR.

Miss accounting follows Section 6: any access to a block that is not
*resident* in the L1 counts as a miss — including merges into in-flight
MSHR entries and stream-buffer hits.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from repro.config import SimConfig
from repro.memory.bus import Bus
from repro.memory.cache import SetAssociativeCache
from repro.memory.dram import MainMemory
from repro.memory.mshr import MshrFile
from repro.memory.tlb import DataTlb

#: Bytes of a request (address) packet on the L1-L2 bus.
REQUEST_BYTES = 8

#: Sentinel "no event pending" cycle for skip-ahead horizons; far enough
#: out that no simulation ever reaches it.
NEVER = 1 << 62


class AccessResult:
    """Outcome of one demand access to the hierarchy."""

    __slots__ = ("complete_cycle", "served_by", "l1_miss", "latency")

    def __init__(
        self, complete_cycle: int, served_by: str, l1_miss: bool, latency: int
    ) -> None:
        self.complete_cycle = complete_cycle
        self.served_by = served_by
        self.l1_miss = l1_miss
        self.latency = latency

    def __repr__(self) -> str:
        return (
            f"AccessResult(done={self.complete_cycle}, via={self.served_by}, "
            f"miss={self.l1_miss}, lat={self.latency})"
        )


class PrefetcherPort:
    """Interface the hierarchy expects from a stream-buffer controller.

    A controller may override any subset; the defaults describe a machine
    with no prefetcher.
    """

    def probe(self, block_addr: int, cycle: int) -> Optional[int]:
        """Tag-match ``block_addr`` across all stream buffers.

        Returns the cycle the block's data is (or will be) available, and
        frees the matching entry; or None on a miss.
        """
        return None

    def on_l1_miss(self, pc: int, addr: int, cycle: int, sb_hit: bool) -> None:
        """Observe a demand L1 miss (allocation + predictor training)."""

    def tick(self, cycle: int) -> None:
        """Advance one cycle: make one prediction, maybe one prefetch."""

    def next_event_cycle(self, cycle: int) -> int:
        """Earliest cycle >= ``cycle`` at which :meth:`tick` could do
        anything.

        :meth:`run` steps by this through the core's idle stretches;
        :data:`NEVER` means the prefetcher is idle until an external
        event (miss, probe) wakes it.  Implementations must be pure
        queries, and must be *conservative*: returning ``cycle`` merely
        costs one tick that does nothing, while returning too large a
        value would silently change simulation results.
        """
        return NEVER

    def run(self, cycle: int, horizon: int) -> None:
        """Tick through ``[cycle, horizon)`` while the core is idle.

        The event-driven core calls this once it has proved nothing of
        its own happens before ``horizon``; :meth:`tick` runs at each
        cycle :meth:`next_event_cycle` names, in order, which is what
        the stepped loop's per-cycle ticks amount to.  A prefetch
        creates no core event before ``horizon``: its fills and bus
        bookings are seen at the core's next demand access.
        """
        next_event = self.next_event_cycle
        tick = self.tick
        cycle = next_event(cycle)
        while cycle < horizon:
            tick(cycle)
            cycle = next_event(cycle + 1)

    def warm(self, misses: List[Tuple[int, int]], detuned: bool) -> None:
        """Functionally warm prefetcher state over one fast-forward stretch.

        The sampling fast-forward engine (:mod:`repro.sampling`) calls
        this once per stretch, instead of :meth:`on_l1_miss` per miss,
        with the stretch's demand L1 load misses as ``(pc, addr)`` pairs
        in trace order.  Fast-forward never runs :meth:`tick`, so
        implementations should update the *persistent* learned state
        (predictor tables, confidence counters), may skip transient
        per-miss work the next window's warm-up rebuilds (allocation,
        prefetch scheduling), and must leave any queue of work bounded.

        ``detuned`` is :attr:`~repro.config.SamplingConfig.warm_confidence`.
        Full-rate warming overshoots detailed steady state: there a warm
        prefetcher *removes* misses, so the predictor trains, and its
        accuracy-confidence counters climb, more slowly than a replay of
        every miss.  A detuned warm keeps the address/history tables
        exact but moves confidence and priority counters at a reduced
        rate.  The default replays each miss through :meth:`on_l1_miss`
        at cycle 0, in either mode: a prefetcher without separate
        confidence state has nothing to detune.
        """
        for pc, addr in misses:
            self.on_l1_miss(pc, addr, 0, False)


class L2Pipeline:
    """The L2 accepts overlapping accesses, ``depth`` at a time."""

    def __init__(self, depth: int, latency: int) -> None:
        if depth < 1:
            raise ValueError("L2 pipeline depth must be at least 1")
        self.latency = latency
        self._slot_free_at: List[int] = [0] * depth

    def access(self, arrival_cycle: int) -> int:
        """Schedule an access; return the cycle its result is available."""
        slots = self._slot_free_at
        best = 0
        best_free = slots[0]
        for index in range(1, len(slots)):
            free = slots[index]
            if free < best_free:
                best_free = free
                best = index
        start = arrival_cycle if arrival_cycle > best_free else best_free
        done = start + self.latency
        slots[best] = done
        return done


class MemoryHierarchy:
    """Coordinates caches, buses, MSHRs, DRAM, TLB, and the prefetcher."""

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        self.l1 = SetAssociativeCache(config.l1_data)
        self.l2 = SetAssociativeCache(config.l2_unified)
        self.l1_l2_bus = Bus(config.l1_l2_bus)
        self.l2_mem_bus = Bus(config.l2_mem_bus)
        self.memory = MainMemory(config.memory, self.l2_mem_bus)
        self.tlb = DataTlb(config.tlb)
        self.l1_mshr = MshrFile(config.l1_data.mshr_entries)
        self.l2_mshr = MshrFile(config.l2_unified.mshr_entries)
        self.l2_pipeline = L2Pipeline(
            config.l2_pipeline_depth, config.l2_unified.hit_latency
        )
        self.prefetcher: PrefetcherPort = PrefetcherPort()
        #: Optional :class:`repro.integrity.InvariantChecker`; when set,
        #: its per-miss / per-prefetch hooks fire from the access paths.
        self.integrity = None
        #: Optional :class:`repro.obs.EventTrace`; when set, demand
        #: misses emit structured events (category ``demand``).
        self.obs_trace = None
        #: Optional :class:`repro.obs.HistogramMetric` observing every
        #: demand miss latency.  :func:`repro.obs.wire_simulator` sets
        #: both handles.
        self.obs_latency_hist = None
        # Pending fills: (ready_cycle, block, dirty) min-heaps.
        self._l1_fills: List[Tuple[int, int, bool]] = []
        self._l2_fills: List[Tuple[int, int, bool]] = []
        # Earliest cycle at which :meth:`drain` has any work: the min
        # ready cycle over both fill heaps (every MSHR entry is paired
        # with a fill at the same ready cycle, so fills cover MSHR
        # retirement too).  Every scheduled fill lowers it; drain
        # recomputes it.  0 so the first drain call does a full pass.
        self._drain_due = 0
        # Statistics.
        self.demand_accesses = 0
        self.demand_misses = 0
        self.sb_hits = 0
        self.sb_pending_hits = 0
        self.prefetches_issued = 0
        self.prefetches_redundant = 0
        # Where true demand misses were ultimately served from (the
        # report's hit-rate breakdown needs L2 vs memory separated).
        self.demand_l2_fetches = 0
        self.demand_mem_fetches = 0

    # ------------------------------------------------------------------
    # Internal fill bookkeeping
    # ------------------------------------------------------------------

    def drain(self, cycle: int) -> None:
        """Complete any fills whose data has arrived by ``cycle``."""
        if cycle < self._drain_due:
            return
        # ``cycle`` follows the core's clock (monotone), so old bus
        # reservations can safely be forgotten here.  (Pruning rides
        # the watermark: deferring it never changes bus timing, only
        # how long stale reservations linger in the scan lists.)
        self.l1_l2_bus.prune_before(cycle)
        self.l2_mem_bus.prune_before(cycle)
        l2_fills = self._l2_fills
        while l2_fills and l2_fills[0][0] <= cycle:
            __, block, dirty = heapq.heappop(l2_fills)
            self.l2.insert(block, dirty=dirty)
        l1_fills = self._l1_fills
        while l1_fills and l1_fills[0][0] <= cycle:
            ready, block, dirty = heapq.heappop(l1_fills)
            victim = self.l1.insert(block, dirty=dirty)
            if victim is not None and victim[1]:
                self._write_back_l1_victim(victim[0], ready)
        self.l1_mshr.retire_ready(cycle)
        self.l2_mshr.retire_ready(cycle)
        l1_head = l1_fills[0][0] if l1_fills else NEVER
        l2_head = l2_fills[0][0] if l2_fills else NEVER
        self._drain_due = l1_head if l1_head < l2_head else l2_head

    def _write_back_l1_victim(self, block: int, cycle: int) -> None:
        """Send a dirty L1 block down to the L2 (occupies the L1-L2 bus)."""
        self.l1_l2_bus.acquire(cycle, self.l1.block_size)
        if not self.l2.mark_dirty(block):
            victim = self.l2.insert(block, dirty=True)
            if victim is not None and victim[1]:
                # Dirty L2 victim goes to memory over the L2-memory bus.
                self.l2_mem_bus.acquire(cycle, self.l2.block_size)

    # ------------------------------------------------------------------
    # L2-and-below request path (shared by demand misses and prefetches)
    # ------------------------------------------------------------------

    def _fetch_from_l2(self, address: int, request_cycle: int) -> Tuple[int, str]:
        """Request an L1 block from the L2 (or memory beyond it).

        ``request_cycle`` is when the request wins the L1-L2 bus.  Returns
        ``(arrival_cycle, served_by)`` where ``arrival_cycle`` is when the
        block's data has fully arrived back at the L1 side and
        ``served_by`` is ``"l2"`` or ``"mem"``.
        """
        l2_block = self.l2.align(address)
        arrival = self.l1_l2_bus.acquire(request_cycle, REQUEST_BYTES) + 1
        l2_hit = self.l2.access(address)
        l2_done = self.l2_pipeline.access(arrival)
        served_by = "l2"
        if not l2_hit:
            served_by = "mem"
            inflight = self.l2_mshr.lookup(l2_block)
            if inflight is not None:
                l2_done = max(l2_done, self.l2_mshr.merge(l2_block))
            else:
                mem_done = self.memory.access(l2_done, self.l2.block_size)
                if not self.l2_mshr.is_full():
                    self.l2_mshr.allocate(l2_block, mem_done)
                else:
                    self.l2_mshr.note_full_stall()
                heapq.heappush(self._l2_fills, (mem_done, l2_block, False))
                if mem_done < self._drain_due:
                    self._drain_due = mem_done
                l2_done = mem_done
        # The refill block crosses the L1-L2 bus back to the L1 side.
        transfer_start = self.l1_l2_bus.acquire(l2_done, self.l1.block_size)
        arrival_cycle = transfer_start + self.l1_l2_bus.transfer_cycles(
            self.l1.block_size
        )
        return arrival_cycle, served_by

    # ------------------------------------------------------------------
    # Demand path
    # ------------------------------------------------------------------

    def access(
        self, pc: int, address: int, cycle: int, is_store: bool = False
    ) -> AccessResult:
        """Perform a demand load/store lookup starting at ``cycle``."""
        self.drain(cycle)
        self.demand_accesses += 1
        l1 = self.l1
        block = address & ~(l1.block_size - 1)
        hit_latency = l1.config.hit_latency
        hit_done = cycle + hit_latency

        if l1.access(address, is_store=is_store):
            return AccessResult(hit_done, "l1", False, hit_latency)

        # Not resident: a miss under the paper's accounting, whatever
        # happens next.
        self.demand_misses += 1

        inflight = self.l1_mshr.lookup(block)
        if inflight is not None:
            # Merged (secondary) misses do not train the predictor: the
            # paper predicts the *miss stream*, i.e. block fetches, and a
            # merge fetches nothing new.
            done = max(self.l1_mshr.merge(block), hit_done)
            return self._miss_result(
                AccessResult(done, "inflight", True, done - cycle), cycle
            )

        sb_ready = self.prefetcher.probe(block, cycle)
        if sb_ready is not None:
            if sb_ready <= cycle:
                # Data waiting in the stream buffer: move block into L1.
                self.sb_hits += 1
                heapq.heappush(self._l1_fills, (hit_done, block, is_store))
                if hit_done < self._drain_due:
                    self._drain_due = hit_done
                self._finish_miss(pc, address, cycle, is_store, sb_hit=True)
                return self._miss_result(
                    AccessResult(hit_done, "sb", True, hit_done - cycle), cycle
                )
            # Tag hit on an in-flight prefetch: hand off to an L1 MSHR.
            self.sb_pending_hits += 1
            done = max(sb_ready, hit_done)
            if not self.l1_mshr.is_full():
                self.l1_mshr.allocate(block, done)
            heapq.heappush(self._l1_fills, (done, block, is_store))
            if done < self._drain_due:
                self._drain_due = done
            self._finish_miss(pc, address, cycle, is_store, sb_hit=True)
            return self._miss_result(
                AccessResult(done, "sb-pending", True, done - cycle), cycle
            )

        # True miss: go to the L2 (and perhaps memory).
        request_cycle = cycle + self.l1.config.hit_latency
        if self.l1_mshr.is_full():
            self.l1_mshr.note_full_stall()
            request_cycle = max(request_cycle, self.l1_mshr.earliest_ready())
            self.l1_mshr.retire_ready(request_cycle)
        done, served = self._fetch_from_l2(address, request_cycle)
        if served == "l2":
            self.demand_l2_fetches += 1
        else:
            self.demand_mem_fetches += 1
        self.l1_mshr.allocate(block, done)
        heapq.heappush(self._l1_fills, (done, block, is_store))
        if done < self._drain_due:
            self._drain_due = done
        self._finish_miss(pc, address, cycle, is_store, sb_hit=False)
        return self._miss_result(
            AccessResult(done, served, True, done - cycle), cycle
        )

    def _miss_result(self, result: AccessResult, cycle: int) -> AccessResult:
        """Fire the integrity and observability hooks on the way out."""
        if self.integrity is not None:
            self.integrity.on_miss(cycle)
        if self.obs_latency_hist is not None:
            self.obs_latency_hist.observe(result.latency)
        trace = self.obs_trace
        if trace is not None and trace.wants("demand"):
            trace.emit(
                cycle, "demand", "miss",
                served_by=result.served_by, latency=result.latency,
            )
        return result

    def _finish_miss(
        self, pc: int, address: int, cycle: int, is_store: bool, sb_hit: bool
    ) -> None:
        """Notify the prefetcher of a demand L1 load miss.

        Training happens in the write-back stage per Section 4.2; only
        *loads* index the prediction tables, so store misses pass by.
        """
        if not is_store:
            self.prefetcher.on_l1_miss(pc, address, cycle, sb_hit)

    # ------------------------------------------------------------------
    # Prefetch path
    # ------------------------------------------------------------------

    def can_prefetch(self, cycle: int) -> bool:
        """Prefetches only launch when the L1-L2 bus is free at the start
        of a cycle (Section 4.1)."""
        return self.l1_l2_bus.next_free_cycle(cycle) == cycle

    def next_prefetch_slot(self, cycle: int) -> int:
        """Earliest cycle >= ``cycle`` a prefetch could win the L1-L2 bus.

        The single "next free cycle" accessor shared by
        :meth:`can_prefetch` and the prefetchers' ``next_event_cycle``
        horizon hooks, so no caller scans bus reservation lists itself.
        Pure query: probing future cycles must not perturb bus state.
        """
        return self.l1_l2_bus.next_free_cycle(cycle)

    def issue_prefetch(
        self, address: int, cycle: int, skip_tlb: bool = False
    ) -> int:
        """Prefetch the L1 block containing ``address`` into a stream buffer.

        Returns the cycle the data will be ready in the stream-buffer
        entry.  Stream buffers do not probe the L1 before prefetching
        (they check only each other, Section 4.1), so a prefetch of an
        already-resident block goes to the L2 anyway — it is simply a
        wasted prefetch, which the accuracy statistics capture.

        ``skip_tlb`` implements the Section 4.5 optimization: a stream
        buffer holding a cached translation for this page skips the TLB
        lookup entirely.
        """
        block = self.l1.align(address)
        if self.l1.probe(block) or self.l1_mshr.lookup(block) is not None:
            self.prefetches_redundant += 1
        if skip_tlb:
            physical, tlb_penalty = address, 0
        else:
            physical, tlb_penalty = self.tlb.translate(address)
        self.prefetches_issued += 1
        done, __ = self._fetch_from_l2(physical, cycle + tlb_penalty)
        if self.integrity is not None:
            self.integrity.on_prefetch(cycle)
        return done

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    @property
    def demand_miss_rate(self) -> float:
        if self.demand_accesses == 0:
            return 0.0
        return self.demand_misses / self.demand_accesses

    def reset_stats(self) -> None:
        """Zero every statistic (fired at the warm-up boundary)."""
        self.demand_accesses = 0
        self.demand_misses = 0
        self.sb_hits = 0
        self.sb_pending_hits = 0
        self.prefetches_issued = 0
        self.prefetches_redundant = 0
        self.demand_l2_fetches = 0
        self.demand_mem_fetches = 0
        if self.obs_latency_hist is not None:
            self.obs_latency_hist.reset()
        self.l1.reset_stats()
        self.l2.reset_stats()
        self.l1_l2_bus.reset_stats()
        self.l2_mem_bus.reset_stats()
        self.memory.reset_stats()
        self.tlb.reset_stats()
