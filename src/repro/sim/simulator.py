"""The top-level simulator: core + hierarchy + prefetcher, one call.

:func:`simulate` is the main entry point of the library::

    from repro.sim import simulate, baseline_config
    from repro.workloads import get_workload

    result = simulate(baseline_config(), get_workload("health", seed=1),
                      max_instructions=50_000, warmup_instructions=5_000)
    print(result.ipc)

Runs are driven in cycle *chunks* so three orthogonal features can hook
cycle boundaries without touching the core's hot loop:

- **invariant checking** (``config.invariants``): an
  :class:`~repro.integrity.invariants.InvariantChecker` sweeps the
  machine every cycle (``full``) or every ``invariant_sample_period``
  cycles (``cheap``);
- **snapshotting** (``snapshot_every``): a resumable
  :class:`~repro.integrity.snapshot.SimSnapshot` is handed to
  ``snapshot_sink`` at fixed cycle boundaries;
- **metrics sampling** (``config.metrics_interval``): the
  :mod:`repro.obs` registry reads every probe into a time series at
  fixed cycle boundaries.

With all off the run is a single uninterrupted call into the core —
the fast path is unchanged.  Because sampling happens at driver stop
boundaries (which clamp, never alter, the event-driven horizon),
samples land on the same cycles in event-driven and cycle-stepped
modes, and results stay bit-identical with observation on or off.

A sampled config (``config.sampling``) runs through the same driver:
:meth:`Simulator.run` builds the sampling driver's state instead of a
``_RunState``, and each measured window runs through the same chunk
loop (invariant checks only: sampled runs snapshot at period
boundaries and take no metrics).  Both kinds of run end in one result
builder, fed one counter row per detailed run or measured window.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional

from repro.config import SimConfig
from repro.cpu.core import CoreStats, OutOfOrderCore, _RunState
from repro.errors import ReproError, SimulationError
from repro.integrity.invariants import build_checker
from repro.memory.hierarchy import MemoryHierarchy
from repro.obs import EventTrace, build_observability, wire_simulator
from repro.perf.collector import PerfCollector
from repro.sim.results import SimulationResult
from repro.stats import ratio
from repro.streambuf.controller import build_prefetcher
from repro.trace.record import TraceRecord


class Simulator:
    """One fully wired machine: reusable across runs of the same config.

    ``event_trace`` optionally attaches a :class:`repro.obs.EventTrace`
    that components emit structured events into; metrics sampling is
    controlled by ``config.metrics_interval``.  Both default off.
    """

    def __init__(
        self, config: SimConfig, event_trace: Optional[EventTrace] = None
    ) -> None:
        self.config = config
        self.hierarchy = MemoryHierarchy(config)
        # A StreamBufferController for the stream-buffer kinds, or a
        # demand-based PrefetcherPort for the Section 3.2 baselines.
        self.controller = build_prefetcher(
            config.prefetch, config.l1_data.block_size
        )
        if self.controller is not None:
            self.controller.attach(self.hierarchy)
        self.core = OutOfOrderCore(
            config.core, self.hierarchy, event_driven=config.event_driven
        )
        # None when config.invariants is OFF; otherwise wired to the
        # hierarchy so per-miss/per-prefetch hooks fire from inside it.
        self.checker = build_checker(config, self.hierarchy, self.controller)
        self.hierarchy.integrity = self.checker
        # Wall-clock timers + fast-path counters.  The collector pickles
        # empty, so snapshots stay bit-identical whether or not (and
        # however long) a run was measured.
        self.perf = PerfCollector()
        self.core.perf = self.perf
        # Metrics + event tracing (repro.obs).  Like the perf collector,
        # the context pickles disabled so observation never leaks into
        # snapshot payloads.
        self.obs = build_observability(config, event_trace)
        wire_simulator(self.obs, self)

    def run(
        self,
        trace: Iterable[TraceRecord],
        max_instructions: Optional[int] = None,
        warmup_instructions: int = 0,
        label: str = "run",
        snapshot_every: Optional[int] = None,
        snapshot_sink: Optional[Callable] = None,
        window_sink: Optional[List[dict]] = None,
    ) -> SimulationResult:
        """Simulate ``trace`` and gather post-warm-up statistics.

        ``snapshot_every`` (cycles) periodically captures a resumable
        :class:`~repro.integrity.snapshot.SimSnapshot` and passes it to
        ``snapshot_sink``.  Under ``config.sampling`` the run is sampled
        (:mod:`repro.sampling.driver`): ``max_instructions`` bounds the
        fast-forwarded and detailed records together, and
        ``window_sink``, when given, receives one uncapped row per
        measured window.
        """
        if self.config.sampling is None:
            state = self.core.begin_run(
                max_instructions=max_instructions,
                warmup_instructions=warmup_instructions,
            )
        else:
            # Warm-up is per measured window (SamplingConfig.warmup), so
            # a whole-run warm-up would be double-counted.
            if warmup_instructions:
                raise SimulationError(
                    "sampled runs take their warm-up from "
                    "SamplingConfig.warmup; run-level "
                    f"warmup_instructions={warmup_instructions} must be 0"
                )
            from repro.sampling.driver import _SamplingState

            state = _SamplingState(max_instructions)
        return self._drive(
            state,
            iter(trace),
            label,
            snapshot_every=snapshot_every,
            snapshot_sink=snapshot_sink,
            window_sink=window_sink,
        )

    def _drive(
        self,
        state,
        source: Iterator[TraceRecord],
        label: str = "run",
        snapshot_every: Optional[int] = None,
        snapshot_sink: Optional[Callable] = None,
        window_sink: Optional[List[dict]] = None,
    ) -> SimulationResult:
        """Advance ``state`` to completion and build the result.

        Shared by fresh runs (:meth:`run`) and snapshot resumes
        (:func:`repro.integrity.snapshot.resume_run`).  A detailed
        ``_RunState`` runs through :meth:`_advance_loop`; a sampled
        config's ``_SamplingState`` through the sampling driver's
        window loop, whose windows run through the same loop.
        """
        if snapshot_every is not None and snapshot_every <= 0:
            raise SimulationError(
                f"snapshot_every must be positive, got {snapshot_every}"
            )
        sampled = self.config.sampling is not None
        if sampled:
            from repro.sampling import driver as sampling_driver
        obs = self.obs
        # Metrics sampling stays off in sampled mode: a timeline over a
        # discontinuous clock would mislead more than inform.
        metrics_stride = (
            obs.sample_interval
            if obs.metrics_enabled and not sampled
            else None
        )
        if metrics_stride is not None:
            obs.bind_run(state)
            obs.metrics.sample(state.cycle)

        try:
            with self.perf.time("simulate"):
                if sampled:
                    sampling_driver.run_windows(
                        self, state, source, label, snapshot_every,
                        snapshot_sink,
                    )
                else:
                    self._advance_loop(
                        state,
                        source,
                        snapshot_every,
                        snapshot_sink,
                        label,
                        metrics_stride,
                    )
        except ReproError:
            # Already classified (e.g. a TraceFormatError surfacing from a
            # lazily-parsed trace iterator, or an IntegrityError from a
            # checker hook): keep the precise category.
            raise
        except Exception as error:
            raise SimulationError(
                f"simulation {label!r} crashed: "
                f"{type(error).__name__}: {error}"
            ) from error
        if sampled:
            result = sampling_driver.stitch(self, state, label, window_sink)
        else:
            if metrics_stride is not None:
                # Final row: sample() dedups if the run ended exactly on
                # a periodic boundary already sampled inside the loop.
                obs.metrics.sample(state.cycle)
            stats = self.core.finish_run(state)
            result = self._result(label, [self._harvest(stats)])
        return result

    def _reset_stats(self) -> None:
        """Zero the machine's statistics at a warm-up boundary."""
        self.hierarchy.reset_stats()
        if self.controller is not None:
            self.controller.reset_stats()
        if self.checker is not None:
            self.checker.note_reset()

    def _harvest(self, stats: CoreStats) -> dict:
        """Raw post-warm-up counters of the run or window that just ended.

        One row of the input to :meth:`_result`.  Every counter here was
        reset at the warm-up boundary except the L1 MSHR merge count,
        which is cumulative (sampled windows store it as a delta).
        """
        hierarchy = self.hierarchy
        controller = self.controller
        bp = self.core.branch_predictor
        return {
            "instructions": stats.retired,
            "cycles": stats.cycles,
            "loads": stats.loads,
            "stores": stats.stores,
            "branches": stats.branches,
            "forwarded": stats.forwarded_loads,
            "latency_total": stats.load_latency.total,
            "latency_count": stats.load_latency.count,
            "demand_accesses": hierarchy.demand_accesses,
            "demand_misses": hierarchy.demand_misses,
            "mshr_merges": hierarchy.l1_mshr.merges,
            "bp_predictions": bp.predictions,
            "bp_mispredictions": bp.mispredictions,
            "l1l2_busy": hierarchy.l1_l2_bus.busy_cycles,
            "l2mem_busy": hierarchy.l2_mem_bus.busy_cycles,
            "tlb_accesses": hierarchy.tlb.accesses,
            "tlb_misses": hierarchy.tlb.misses,
            "prefetches_issued": getattr(controller, "prefetches_issued", 0),
            "prefetches_used": getattr(controller, "prefetches_used", 0),
            "sb_allocations": getattr(controller, "allocations", 0),
            "sb_allocations_denied": getattr(
                controller, "allocations_denied", 0
            ),
        }

    def _result(self, label: str, rows: List[dict]) -> SimulationResult:
        """Build the result from harvested counter rows.

        A detailed run is one row; a sampled run has one per measured
        window, so every rate is the ratio of the rows' summed counts.
        """

        def total(key: str) -> int:
            return sum(row[key] for row in rows)

        instructions = total("instructions")
        cycles = total("cycles")
        issued = total("prefetches_issued")
        used = total("prefetches_used")
        checker = self.checker
        return SimulationResult(
            label=label,
            instructions=instructions,
            cycles=cycles,
            ipc=ratio(instructions, cycles),
            l1_miss_rate=ratio(
                total("demand_misses"), total("demand_accesses")
            ),
            avg_load_latency=ratio(
                total("latency_total"), total("latency_count")
            ),
            load_fraction=ratio(total("loads"), instructions),
            store_fraction=ratio(total("stores"), instructions),
            branch_misprediction_rate=ratio(
                total("bp_mispredictions"), total("bp_predictions")
            ),
            l1_l2_bus_utilization=min(1.0, ratio(total("l1l2_busy"), cycles)),
            l2_mem_bus_utilization=min(
                1.0, ratio(total("l2mem_busy"), cycles)
            ),
            prefetches_issued=issued,
            prefetches_used=used,
            prefetch_accuracy=min(1.0, ratio(used, issued)),
            sb_allocations=total("sb_allocations"),
            sb_allocations_denied=total("sb_allocations_denied"),
            forwarded_loads=total("forwarded"),
            tlb_miss_rate=ratio(total("tlb_misses"), total("tlb_accesses")),
            extra={
                # Raw counts the golden-model differential check needs
                # (rates alone cannot express its conservation laws).
                "demand_accesses": float(total("demand_accesses")),
                "demand_misses": float(total("demand_misses")),
                "l1_mshr_merges": float(total("mshr_merges")),
                "loads": float(total("loads")),
                "stores": float(total("stores")),
                "branches": float(total("branches")),
                "invariant_checks": float(
                    checker.checks_run if checker is not None else 0
                ),
            },
        )

    def _advance_loop(
        self,
        state: _RunState,
        source: Iterator[TraceRecord],
        snapshot_every: Optional[int] = None,
        snapshot_sink: Optional[Callable] = None,
        label: str = "run",
        metrics_stride: Optional[int] = None,
    ) -> None:
        """Advance ``state`` to completion, stopping at chunk boundaries.

        Runs a detailed run and every detailed window of a sampled one.
        """
        checker = self.checker
        check_stride = checker.stride if checker is not None else None
        on_warmup_end = self._reset_stats
        if (
            check_stride is None
            and snapshot_every is None
            and metrics_stride is None
        ):
            # Fast path: one uninterrupted call into the core.
            self.core.advance(source, state, on_warmup_end=on_warmup_end)
        else:
            obs = self.obs
            trace = obs.trace
            emit_integrity = (
                trace is not None
                and checker is not None
                and trace.wants("integrity")
            )
            while True:
                stops = []
                if check_stride is not None:
                    stops.append(
                        (state.cycle // check_stride + 1) * check_stride
                    )
                if snapshot_every is not None:
                    stops.append(
                        (state.cycle // snapshot_every + 1) * snapshot_every
                    )
                if metrics_stride is not None:
                    stops.append(
                        (state.cycle // metrics_stride + 1) * metrics_stride
                    )
                finished = self.core.advance(
                    source,
                    state,
                    on_warmup_end=on_warmup_end,
                    stop_cycle=min(stops),
                )
                # Sweep only on the checker's own stride (or at the end),
                # so snapshot and metrics stops do not change the count.
                if checker is not None and (
                    finished or state.cycle % check_stride == 0
                ):
                    checker.on_cycle(state.cycle)
                    if emit_integrity:
                        trace.emit(
                            state.cycle, "integrity", "sweep",
                            checks_run=checker.checks_run,
                        )
                if (
                    metrics_stride is not None
                    and state.cycle % metrics_stride == 0
                ):
                    obs.metrics.sample(state.cycle)
                if finished:
                    break
                if (
                    snapshot_sink is not None
                    and snapshot_every is not None
                    and state.cycle % snapshot_every == 0
                ):
                    from repro.integrity.snapshot import SimSnapshot

                    snapshot_sink(SimSnapshot.capture(self, state, label))


def simulate(
    config: SimConfig,
    trace: Iterable[TraceRecord],
    max_instructions: Optional[int] = None,
    warmup_instructions: int = 0,
    label: str = "run",
    snapshot_every: Optional[int] = None,
    snapshot_sink: Optional[Callable] = None,
    event_trace: Optional[EventTrace] = None,
) -> SimulationResult:
    """Build a fresh machine for ``config`` and run ``trace`` through it.

    ``event_trace`` attaches structured event tracing (see
    :mod:`repro.obs.tracing`); metrics sampling follows
    ``config.metrics_interval``.
    """
    return Simulator(config, event_trace=event_trace).run(
        trace,
        max_instructions=max_instructions,
        warmup_instructions=warmup_instructions,
        label=label,
        snapshot_every=snapshot_every,
        snapshot_sink=snapshot_sink,
    )
