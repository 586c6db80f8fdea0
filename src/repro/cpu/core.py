"""Cycle-driven out-of-order core (Section 5.1).

The model keeps every mechanism the paper's results depend on:

- 8-wide fetch limited to two branch predictions per cycle, stalling on a
  gshare misprediction until the branch resolves plus an 8-cycle penalty;
- a 128-entry reorder buffer and 64-entry load/store queue; dispatch
  stalls when either is full, so long-latency misses back the window up;
- dependence-driven issue over the paper's functional-unit mix, with
  unpipelined dividers;
- loads issued to the memory hierarchy (L1 + stream buffers + L2 + DRAM)
  with a selectable disambiguation policy; same-word store-to-load
  forwarding costs 2 cycles and forwarded loads never train the
  prefetcher (Section 4.2);
- in-order retirement, up to 8 per cycle.

Simplifications vs. SimpleScalar (documented in DESIGN.md): wrong-path
instructions are not executed (the misprediction penalty is charged
instead), and stores access the cache at issue rather than at commit.

**Event-driven fast path** (``event_driven``, default on): when a cycle
ends with nothing to issue, nothing retirable and fetch provably
blocked, the loop computes a *horizon* — the earlier of the next
completion in the heap and a stalled branch's redirect cycle — and
jumps ``cycle`` straight there.  The skipped iterations did only two
things each cycle: ``FunctionalUnits.new_cycle``, replayed once for the
last of them, and the prefetcher's ``tick``, which
``PrefetcherPort.run`` replays at each cycle the prefetcher's
``next_event_cycle`` names.  So the machine state at every cycle
boundary is bit-identical to the cycle-stepped loop; the equivalence
tests assert this stats-, snapshot-, and golden-check-deep.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from repro.config import CoreConfig, DisambiguationPolicy
from repro.cpu.branch import GsharePredictor
from repro.cpu.funits import FunctionalUnits
from repro.cpu.storesets import StoreTracker
from repro.memory.hierarchy import MemoryHierarchy
from repro.stats import Accumulator
from repro.trace.record import InstrKind, TraceRecord

#: Safety valve: if nothing retires for this many cycles, the model is wedged.
_DEADLOCK_CYCLES = 100_000

#: "No event pending" horizon sentinel (matches the hierarchy's NEVER).
_NEVER = 1 << 62


class _Instr:
    """Book-keeping for one in-flight instruction."""

    __slots__ = (
        "seq",
        "kind",
        "pc",
        "addr",
        "pending_deps",
        "dependents",
        "issued",
        "completed",
        "complete_cycle",
        "forward_from",
    )

    def __init__(self, seq: int, record: TraceRecord) -> None:
        self.seq = seq
        self.kind = record.kind
        self.pc = record.pc
        self.addr = record.addr
        self.pending_deps = 0
        self.dependents: List["_Instr"] = []
        self.issued = False
        self.completed = False
        self.complete_cycle = -1
        self.forward_from: Optional[int] = None  # store seq feeding this load


class _RunState:
    """All mutable state of one in-progress simulation run.

    Everything the main loop needs lives here (not in locals of a
    monolithic ``run``) so a run can be paused between cycles, pickled
    into a snapshot, and resumed bit-identically.  Holds plain data
    only — callbacks stay parameters of :meth:`OutOfOrderCore.advance`
    so the state never captures unpicklable closures.
    """

    __slots__ = (
        "max_instructions",
        "warmup_instructions",
        "rob",
        "rob_head",
        "alive",
        "completions",
        "ready",
        "lsq_occupancy",
        "seq",
        "fetched",
        "retired",
        "cycle",
        "trace_done",
        "pending_record",
        "stall_branch",
        "last_retire_cycle",
        "warmup_cycle",
        "warmup_retired",
        "warmup_pending",
        "loads",
        "stores",
        "branches",
        "forwarded",
        "finished",
    )

    def __init__(
        self, max_instructions: Optional[int], warmup_instructions: int
    ) -> None:
        self.max_instructions = max_instructions
        self.warmup_instructions = warmup_instructions
        self.rob: List[Optional[_Instr]] = []  # deque via head index
        self.rob_head = 0
        self.alive: Dict[int, _Instr] = {}
        self.completions: List[tuple] = []
        self.ready: List[_Instr] = []
        self.lsq_occupancy = 0
        self.seq = 0
        self.fetched = 0
        self.retired = 0
        self.cycle = 0
        self.trace_done = False
        self.pending_record: Optional[TraceRecord] = None
        self.stall_branch: Optional[_Instr] = None
        self.last_retire_cycle = 0
        self.warmup_cycle = 0
        self.warmup_retired = 0
        self.warmup_pending = warmup_instructions > 0
        self.loads = 0
        self.stores = 0
        self.branches = 0
        self.forwarded = 0
        self.finished = False

    @property
    def records_consumed(self) -> int:
        """How many records have been pulled off the trace iterator.

        Every consumed record was either dispatched (``fetched``) or is
        parked in ``pending_record``; a resumed run skips exactly this
        many records of a freshly built trace to land where it left off.
        """
        return self.fetched + (1 if self.pending_record is not None else 0)

    def observable_state(self):
        """Core-progress probes for the observability layer.

        Returns ``name -> zero-argument reader`` over this run's state.
        The readers are sampled at ``advance`` boundaries, where the
        locals-to-state sync guarantees every field is current.
        """
        return {
            "retired": lambda: float(self.retired),
            "fetched": lambda: float(self.fetched),
            "rob_occupancy": lambda: float(len(self.rob) - self.rob_head),
            "lsq_occupancy": lambda: float(self.lsq_occupancy),
        }

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)


class CoreStats:
    """Post-warm-up statistics for one simulation."""

    def __init__(self) -> None:
        self.cycles = 0
        self.retired = 0
        self.loads = 0
        self.stores = 0
        self.branches = 0
        self.forwarded_loads = 0
        self.load_latency = Accumulator("load-latency")

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.retired / self.cycles

    @property
    def load_fraction(self) -> float:
        if self.retired == 0:
            return 0.0
        return self.loads / self.retired

    @property
    def store_fraction(self) -> float:
        if self.retired == 0:
            return 0.0
        return self.stores / self.retired


class OutOfOrderCore:
    """Executes a trace against a memory hierarchy, cycle by cycle."""

    def __init__(
        self,
        config: CoreConfig,
        hierarchy: MemoryHierarchy,
        event_driven: bool = True,
    ) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.event_driven = event_driven
        self.branch_predictor = GsharePredictor(config.gshare_history_bits)
        self.funits = FunctionalUnits(config)
        self.store_tracker = StoreTracker(config.disambiguation)
        self.stats = CoreStats()
        #: Optional :class:`repro.perf.PerfCollector`; cycles the fast
        #: path skipped, the prefetcher's ticks through them included,
        #: are tallied here (never into the snapshotted run state, so
        #: fast and stepped runs stay bit-identical).
        self.perf = None

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(
        self,
        trace: Iterable[TraceRecord],
        max_instructions: Optional[int] = None,
        warmup_instructions: int = 0,
        on_warmup_end: Optional[Callable[[], None]] = None,
    ) -> CoreStats:
        """Simulate ``trace`` to completion; return post-warm-up stats.

        ``warmup_instructions`` retire before statistics begin; at that
        point ``on_warmup_end`` (if given) is invoked so callers can reset
        prefetcher/hierarchy statistics too.
        """
        state = self.begin_run(max_instructions, warmup_instructions)
        self.advance(iter(trace), state, on_warmup_end=on_warmup_end)
        return self.finish_run(state)

    def begin_run(
        self,
        max_instructions: Optional[int] = None,
        warmup_instructions: int = 0,
    ) -> _RunState:
        """Create the state for a new run, ready for :meth:`advance`."""
        return _RunState(max_instructions, warmup_instructions)

    def advance(
        self,
        source: Iterator[TraceRecord],
        state: _RunState,
        on_warmup_end: Optional[Callable[[], None]] = None,
        stop_cycle: Optional[int] = None,
    ) -> bool:
        """Simulate until the trace drains or ``state.cycle`` reaches
        ``stop_cycle`` (a cycle *boundary*: that cycle has not started).

        Returns True once the run is finished.  Between calls the entire
        run lives in ``state``, so callers may snapshot it, run
        invariant checks, or simply call again to continue — an
        interrupted sequence of ``advance`` calls is cycle-for-cycle
        identical to one uninterrupted call.
        """
        if state.finished:
            return True
        config = self.config
        hierarchy = self.hierarchy
        prefetcher = hierarchy.prefetcher
        # The loop body reads/writes locals (hot path); state fields are
        # synced at entry and, via ``finally``, at every exit.  Config
        # scalars, enum members, and bound methods are hoisted too —
        # attribute lookups in this loop are a measurable fraction of
        # total simulation wall time.
        fetch_width = config.fetch_width
        rob_entries = config.rob_entries
        lsq_entries = config.lsq_entries
        issue_width = config.issue_width
        retire_width = config.retire_width
        branch_preds_per_cycle = config.branch_predictions_per_cycle
        mispredict_penalty = config.mispredict_penalty
        store_forward_latency = config.store_forward_latency
        no_disambiguation = (
            config.disambiguation == DisambiguationPolicy.NO_DISAMBIGUATION
        )
        LOAD = InstrKind.LOAD
        STORE = InstrKind.STORE
        BRANCH = InstrKind.BRANCH
        heappush = heapq.heappush
        heappop = heapq.heappop
        funits_new_cycle = self.funits.new_cycle
        funits_try_issue = self.funits.try_issue
        hier_access = hierarchy.access
        prefetcher_tick = prefetcher.tick
        prefetcher_run = prefetcher.run
        bp_update = self.branch_predictor.update
        tracker = self.store_tracker
        track_load = tracker.for_load
        track_store_dispatched = tracker.note_store_dispatched
        track_store_retired = tracker.note_store_retired
        track_previous_store = tracker.previous_store
        load_latency_add = self.stats.load_latency.add
        rob = state.rob
        rob_head = state.rob_head
        alive = state.alive
        completions = state.completions
        ready = state.ready
        lsq_occupancy = state.lsq_occupancy
        seq = state.seq
        fetched = state.fetched
        retired = state.retired
        cycle = state.cycle
        trace_done = state.trace_done
        pending_record = state.pending_record
        stall_branch = state.stall_branch
        last_retire_cycle = state.last_retire_cycle
        warmup_pending = state.warmup_pending
        loads = state.loads
        stores = state.stores
        branches = state.branches
        forwarded = state.forwarded
        max_instructions = state.max_instructions
        warmup_instructions = state.warmup_instructions
        finished = False
        event_driven = self.event_driven
        cycles_skipped = 0
        alive_get = alive.get
        alive_pop = alive.pop

        try:
            while True:
                if stop_cycle is not None and cycle >= stop_cycle:
                    break
                funits_new_cycle(cycle)

                # ---- complete --------------------------------------------
                while completions and completions[0][0] <= cycle:
                    __, __, instr = heappop(completions)
                    instr.completed = True
                    for dependent in instr.dependents:
                        dependent.pending_deps -= 1
                        if dependent.pending_deps == 0 and not dependent.issued:
                            ready.append(dependent)
                    instr.dependents = []

                # ---- retire ----------------------------------------------
                retired_this_cycle = 0
                while (
                    rob_head < len(rob)
                    and rob[rob_head].completed
                    and retired_this_cycle < retire_width
                ):
                    instr = rob[rob_head]
                    rob[rob_head] = None  # free the reference
                    rob_head += 1
                    retired_this_cycle += 1
                    retired += 1
                    last_retire_cycle = cycle
                    alive_pop(instr.seq, None)
                    kind = instr.kind
                    if kind is LOAD:
                        loads += 1
                        lsq_occupancy -= 1
                    elif kind is STORE:
                        stores += 1
                        lsq_occupancy -= 1
                        track_store_retired(instr.seq, instr.addr)
                    elif kind is BRANCH:
                        branches += 1
                    if warmup_pending and retired >= warmup_instructions:
                        warmup_pending = False
                        state.warmup_cycle = cycle
                        state.warmup_retired = retired
                        loads = stores = branches = forwarded = 0
                        self.reset_stats()
                        if on_warmup_end is not None:
                            on_warmup_end()
                if rob_head > 4096 and rob_head == len(rob):
                    rob = []
                    rob_head = 0

                # ---- fetch / dispatch ------------------------------------
                if stall_branch is not None:
                    if (
                        stall_branch.complete_cycle >= 0
                        and cycle
                        >= stall_branch.complete_cycle + mispredict_penalty
                    ):
                        stall_branch = None
                if stall_branch is None and not trace_done:
                    branches_this_cycle = 0
                    for __ in range(fetch_width):
                        if len(rob) - rob_head >= rob_entries:
                            break
                        if (
                            max_instructions is not None
                            and fetched >= max_instructions
                        ):
                            trace_done = True
                            break
                        if pending_record is not None:
                            record = pending_record
                            pending_record = None
                        else:
                            record = next(source, None)
                            if record is None:
                                trace_done = True
                                break
                        rkind = record.kind
                        is_memory = rkind is LOAD or rkind is STORE
                        if is_memory and lsq_occupancy >= lsq_entries:
                            pending_record = record
                            break
                        if rkind is BRANCH:
                            if branches_this_cycle >= branch_preds_per_cycle:
                                pending_record = record
                                break
                            branches_this_cycle += 1

                        instr = _Instr(seq, record)
                        alive[seq] = instr
                        seq += 1
                        fetched += 1
                        if is_memory:
                            lsq_occupancy += 1

                        # Dependence wiring (_register_dependences inlined).
                        dep1 = record.dep1
                        if dep1 > 0:
                            producer = alive_get(instr.seq - dep1)
                            if producer is not None and not producer.completed:
                                producer.dependents.append(instr)
                                instr.pending_deps += 1
                        dep2 = record.dep2
                        if dep2 > 0 and dep2 != dep1:
                            producer = alive_get(instr.seq - dep2)
                            if producer is not None and not producer.completed:
                                producer.dependents.append(instr)
                                instr.pending_deps += 1
                        if rkind is LOAD:
                            store_seq, forward_seq = track_load(record.addr)
                            if store_seq is not None:
                                producer = alive_get(store_seq)
                                if (
                                    producer is not None
                                    and not producer.completed
                                ):
                                    producer.dependents.append(instr)
                                    instr.pending_deps += 1
                            if forward_seq is not None:
                                instr.forward_from = forward_seq
                        elif rkind is STORE:
                            if no_disambiguation:
                                # Chain stores so they issue in order;
                                # with the load->previous-store edge this
                                # makes every load wait for all prior
                                # stores, the paper's "NoDis" behaviour.
                                previous = track_previous_store()
                                if previous is not None:
                                    producer = alive_get(previous)
                                    if (
                                        producer is not None
                                        and not producer.completed
                                    ):
                                        producer.dependents.append(instr)
                                        instr.pending_deps += 1
                            track_store_dispatched(instr.seq, instr.addr)
                        rob.append(instr)
                        if instr.pending_deps == 0:
                            ready.append(instr)
                        if rkind is BRANCH:
                            if not bp_update(record.pc, record.taken):
                                stall_branch = instr
                                break

                # ---- issue -----------------------------------------------
                if ready:
                    issued_count = 0
                    still_waiting: List[_Instr] = []
                    for instr in ready:
                        ikind = instr.kind
                        if (
                            issued_count >= issue_width
                            or (latency := funits_try_issue(ikind)) < 0
                        ):
                            still_waiting.append(instr)
                            continue
                        issued_count += 1
                        instr.issued = True
                        # _execute inlined.
                        if ikind is LOAD:
                            if instr.forward_from is not None:
                                # Same-word store still in the window:
                                # forward, skip the cache (and therefore
                                # skip prefetcher training).
                                complete = cycle + store_forward_latency
                                forwarded += 1
                            else:
                                complete = hier_access(
                                    instr.pc, instr.addr, cycle, is_store=False
                                ).complete_cycle
                            load_latency_add(complete - cycle)
                        elif ikind is STORE:
                            # Stores access the hierarchy for bandwidth and
                            # state effects but never stall the window.
                            hier_access(instr.pc, instr.addr, cycle, is_store=True)
                            complete = cycle + 1
                        else:
                            complete = cycle + latency
                        instr.complete_cycle = complete
                        heappush(completions, (complete, instr.seq, instr))
                    ready = still_waiting

                # ---- prefetcher gets its cycle ---------------------------
                prefetcher_tick(cycle)

                # ---- termination / deadlock ------------------------------
                if trace_done and rob_head >= len(rob):
                    finished = True
                    break
                if cycle - last_retire_cycle > _DEADLOCK_CYCLES:
                    raise RuntimeError(
                        f"core wedged: no retirement since cycle "
                        f"{last_retire_cycle}"
                    )
                cycle += 1

                # ---- event-driven skip-ahead -----------------------------
                # Quiescence test for the cycle about to start: nothing
                # issuable, nothing retirable, fetch provably blocked.
                # Each clause either proves the core does nothing before
                # the horizon or falls back to single-stepping, so a
                # wrong horizon can cost time but never correctness.
                if not event_driven or ready:
                    continue
                if completions:
                    horizon = completions[0][0]
                    if horizon <= cycle:
                        continue  # a completion lands this cycle
                else:
                    horizon = _NEVER
                if rob_head < len(rob) and rob[rob_head].completed:
                    continue  # more retires this cycle (width-limited)
                if not trace_done:
                    if stall_branch is not None:
                        redirect = stall_branch.complete_cycle
                        if redirect >= 0:
                            redirect += mispredict_penalty
                            if redirect <= cycle:
                                continue  # fetch resumes this cycle
                            if redirect < horizon:
                                horizon = redirect
                        # An unissued stalled branch waits on a
                        # completion already in the horizon.
                    elif len(rob) - rob_head >= rob_entries:
                        pass  # ROB full: frees only via retire
                    elif (
                        pending_record is not None
                        and (
                            pending_record.kind is LOAD
                            or pending_record.kind is STORE
                        )
                        and lsq_occupancy >= lsq_entries
                    ):
                        pass  # LSQ full: frees only via retire
                    else:
                        continue  # fetch can dispatch this cycle
                # Never skip past the deadlock detector's trip point or
                # a caller's stop boundary.
                deadline = last_retire_cycle + _DEADLOCK_CYCLES + 1
                if horizon > deadline:
                    horizon = deadline
                if stop_cycle is not None and horizon > stop_cycle:
                    horizon = stop_cycle
                if horizon > cycle:
                    # The skipped iterations' only per-cycle side effects
                    # are the prefetcher's ticks, which create no core
                    # event before the horizon, and the functional
                    # units' slot reset.  Replay both so state at the
                    # landing cycle (or a stop boundary) matches the
                    # stepped loop bit for bit.
                    prefetcher_run(cycle, horizon)
                    funits_new_cycle(horizon - 1)
                    cycles_skipped += horizon - cycle
                    cycle = horizon
        finally:
            state.rob = rob
            state.rob_head = rob_head
            state.alive = alive
            state.completions = completions
            state.ready = ready
            state.lsq_occupancy = lsq_occupancy
            state.seq = seq
            state.fetched = fetched
            state.retired = retired
            state.cycle = cycle
            state.trace_done = trace_done
            state.pending_record = pending_record
            state.stall_branch = stall_branch
            state.last_retire_cycle = last_retire_cycle
            state.warmup_pending = warmup_pending
            state.loads = loads
            state.stores = stores
            state.branches = branches
            state.forwarded = forwarded
            state.finished = finished
            if self.perf is not None:
                self.perf.add("core.cycles_skipped", cycles_skipped)
        return finished

    def reset_stats(self) -> None:
        """Zero the core's own statistics (the warm-up boundary's reset)."""
        self.stats.load_latency.reset()
        self.branch_predictor.reset_stats()
        self.store_tracker.reset_stats()

    def finish_run(self, state: _RunState) -> CoreStats:
        """Aggregate a finished (or aborted) run's post-warm-up stats."""
        stats = self.stats
        stats.cycles = max(1, state.cycle - state.warmup_cycle)
        stats.retired = state.retired - state.warmup_retired
        stats.loads = state.loads
        stats.stores = state.stores
        stats.branches = state.branches
        stats.forwarded_loads = state.forwarded
        return stats
