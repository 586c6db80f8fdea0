"""The systematic-sampling driver: detailed windows + fast-forward gaps.

Each :class:`~repro.config.SamplingConfig` period of ``period`` trace
records is fast-forwarded through the
:class:`~repro.sampling.fastforward.FastForwardEngine` except for a
detailed stretch of ``warmup + window`` records — ``warmup``
instructions to warm timing state (discarded) then ``window`` measured
instructions — placed at each period's *midpoint*: the first
fast-forward gap is half a gap, every later gap a full one.  The
midpoint grid (the SMARTS layout) keeps windows away from both edges of
the estimator's blind spots: anchoring windows at period starts would
give the program's extreme cold-start transient a whole period's
weight, while anchoring them at period ends would never sample the
head-of-trace ramp at all.

**Window placement is a pure function of record counts.**  The
fast-forward gap replays exactly ``period - (warmup + window)`` records
and the detailed window consumes ``_RunState.records_consumed`` records
(bit-identical between the event-driven and cycle-stepped loops, which
the equivalence tests assert), so sampled results are mode-independent
and deterministic.

**The clock never rewinds.**  Every window starts at the cycle the
previous one ended (fast-forward is zero-cycle), so in-flight fills,
MSHR entries, and bus reservations left by the previous window drain
naturally as the new window's monotone clock passes them — no machinery
is quiesced between windows.

Each window runs through the detailed run's own chunk loop
(:meth:`Simulator._advance_loop
<repro.sim.simulator.Simulator._advance_loop>`) and its post-warm-up
counters become one row; the rows go through the result builder a
detailed run's single row goes through, so whole-trace IPC is
instruction-weighted.  :func:`stitch` then adds the sampling metadata
to ``extra`` (window count, a 95% confidence interval over per-window
IPC, per-window rows) as plain floats so manifests round-trip unchanged.

Snapshots: with ``snapshot_every``/``snapshot_sink`` the driver captures
a ``mode="sampled"`` :class:`~repro.integrity.snapshot.SimSnapshot` at
period boundaries (the first boundary at or after each ``snapshot_every``
cycles of progress); :func:`repro.integrity.snapshot.resume_run`
continues one to a result bit-identical to an uninterrupted run.
Metrics sampling stays off in sampled mode — timelines over a
discontinuous clock would mislead more than inform.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, List, Optional

from repro.sampling.fastforward import FastForwardEngine
from repro.sim.results import SimulationResult
from repro.stats import ratio
from repro.trace.record import TraceRecord

#: How many per-window rows are exported into ``result.extra`` before
#: truncating — manifests should stay human-readable even for very long
#: traces.  The CI and aggregate stats always cover *all* windows.
_MAX_WINDOW_ROWS = 64


class _SamplingState:
    """Everything a sampled run needs to resume at a period boundary.

    Exposes ``cycle`` and ``records_consumed`` attributes so
    :meth:`SimSnapshot.capture` treats it exactly like a ``_RunState``.
    Plain picklable data only.
    """

    __slots__ = (
        "cycle",
        "records_consumed",
        "period_index",
        "windows",
        "ff",
        "merges_seen",
        "max_instructions",
        "last_snapshot_cycle",
    )

    def __init__(self, max_instructions: Optional[int]) -> None:
        self.cycle = 0
        self.records_consumed = 0
        self.period_index = 0
        #: One dict of raw integer counters per measured window.
        self.windows: List[dict] = []
        #: Fast-forward totals, which the engine updates in place
        #: (snapshots from older versions also carry loads, stores and
        #: branches, which nothing reads).
        self.ff = {"instructions": 0, "l1_misses": 0}
        #: Cumulative L1 MSHR merges at the end of the last window (the
        #: merge counter is never reset, so windows record deltas).
        self.merges_seen = 0
        self.max_instructions = max_instructions
        self.last_snapshot_cycle = 0

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)


def run_windows(
    simulator,
    state: _SamplingState,
    source: Iterator[TraceRecord],
    label: str,
    snapshot_every: Optional[int],
    snapshot_sink: Optional[Callable],
) -> None:
    """Alternate fast-forward gaps with detailed windows to the end.

    Called by :meth:`Simulator._drive
    <repro.sim.simulator.Simulator._drive>` for a sampled config;
    ``state.max_instructions`` bounds total records (fast-forwarded +
    detailed), matching detailed-mode semantics.
    """
    sampling = simulator.config.sampling
    period = sampling.period
    window = sampling.window
    warmup = sampling.warmup
    # Stratified placement: with s strata each period's detailed budget
    # splits into s sub-windows, one at the midpoint of each of the
    # period's s strata.  The loop below then just runs the midpoint
    # rule on the sub-period grid — same measured fraction, s times the
    # phase coverage.  (SamplingConfig validated divisibility.)
    if sampling.strata > 1:
        period //= sampling.strata
        window //= sampling.strata
        warmup //= sampling.strata
    core = simulator.core
    # The engine adds to the state's own totals, so after a resume the
    # stitched ff counters cover the whole run.
    engine = FastForwardEngine(simulator, state.ff)
    budget = state.max_instructions
    clock = state.cycle
    gap_target = period - (window + warmup)
    # The first gap is half a period so windows sit at period *midpoints*
    # (the midpoint rule): an end-of-period grid systematically skips any
    # monotone transient at the head of the trace, biasing the estimate
    # high.  Resumes recompute the same grid from period_index (which
    # counts sub-periods under stratified placement).
    gap = (
        gap_target // 2 if state.period_index == 0 else gap_target
    )
    pending = None

    while True:
        remaining = (
            None if budget is None else budget - state.records_consumed
        )
        if remaining is not None and remaining <= gap + warmup:
            # Whatever is left cannot contain a measured instruction
            # after the gap and warm-up: fast-forward the tail so the
            # whole budget still warms state (harmless if a later caller
            # resumes) and stop.
            if remaining > 0 or pending is not None:
                state.records_consumed += engine.replay(
                    source, max(0, remaining), pending
                )
            break

        # ---- fast-forward to the window (SMARTS functional warming) --
        if gap > 0 or pending is not None:
            pulled = engine.replay(source, gap, pending)
            pending = None
            state.records_consumed += pulled
            if pulled < gap:
                break  # trace ran dry mid-gap: no further window fits
        gap = gap_target

        # ---- detailed window (warmup + measured) ---------------------
        window_start = state.records_consumed
        detailed_cap = window + warmup
        if budget is not None:
            detailed_cap = min(
                detailed_cap, budget - state.records_consumed
            )
        run_state = core.begin_run(
            max_instructions=detailed_cap, warmup_instructions=warmup
        )
        # Continue the global clock: the window starts where the last
        # one ended, so leftover fills/reservations drain naturally and
        # the deadlock detector's reference point is current.
        run_state.cycle = clock
        run_state.last_retire_cycle = clock
        run_state.warmup_cycle = clock
        if warmup == 0:
            # The core's warm-up boundary never fires, so apply its
            # resets before the window starts measuring.
            core.reset_stats()
            simulator._reset_stats()
        simulator._advance_loop(run_state, source)
        stats = core.finish_run(run_state)
        clock = run_state.cycle
        state.cycle = clock
        state.records_consumed += run_state.records_consumed
        exhausted = run_state.fetched < detailed_cap
        if not run_state.warmup_pending and stats.retired > 0:
            row = simulator._harvest(stats)
            # The merge counter is never reset: store this window's delta.
            merges = row["mshr_merges"]
            row["mshr_merges"] = merges - state.merges_seen
            state.merges_seen = merges
            # Record-space offset of the detailed stretch: the paired
            # driver asserts both machines of a pair measured the same
            # trace spans.
            row["start_record"] = window_start
            state.windows.append(row)
        if exhausted:
            break
        # A record the window consumed but never dispatched is replayed
        # by the next fast-forward stretch.
        pending = run_state.pending_record
        state.period_index += 1

        if (
            snapshot_sink is not None
            and snapshot_every is not None
            and clock - state.last_snapshot_cycle >= snapshot_every
        ):
            from repro.integrity.snapshot import SimSnapshot

            state.last_snapshot_cycle = clock
            snapshot_sink(SimSnapshot.capture(simulator, state, label))


def stitch(
    simulator,
    state: _SamplingState,
    label: str,
    window_sink: Optional[List[dict]] = None,
) -> SimulationResult:
    """The whole-trace result of a finished sampled run.

    ``window_sink``, when given, receives one *uncapped* row dict per
    measured window (index, ipc, instructions, cycles, miss_rate,
    start_record) — the paired driver consumes these; ``result.extra``
    stays capped at ``_MAX_WINDOW_ROWS`` rows either way.
    """
    sampling = simulator.config.sampling
    windows = state.windows
    result = simulator._result(label, windows)
    ipcs = [ratio(w["instructions"], w["cycles"]) for w in windows]
    ci95 = 0.0
    if len(ipcs) >= 2:
        mean = sum(ipcs) / len(ipcs)
        variance = sum((x - mean) ** 2 for x in ipcs) / (len(ipcs) - 1)
        ci95 = 1.96 * math.sqrt(variance) / math.sqrt(len(ipcs))
    extra = result.extra
    extra.update(
        {
            # Sampling metadata (floats only: manifests round-trip asdict).
            "sampled": 1.0,
            "sample_period": float(sampling.period),
            "sample_window": float(sampling.window),
            "sample_warmup": float(sampling.warmup),
            "sample_strata": float(sampling.strata),
            "sample_warm_confidence": float(sampling.warm_confidence),
            "windows": float(len(windows)),
            # No silent caps: how many per-window rows the
            # _MAX_WINDOW_ROWS export limit dropped from this extra block
            # (0 = none).
            "windows_truncated": float(
                max(0, len(windows) - _MAX_WINDOW_ROWS)
            ),
            "ipc_ci95": ci95,
            "measured_instructions": float(result.instructions),
            "ff_instructions": float(state.ff["instructions"]),
            "ff_l1_misses": float(state.ff["l1_misses"]),
        }
    )
    for index, (w, ipc) in enumerate(zip(windows, ipcs)):
        miss_rate = ratio(w["demand_misses"], w["demand_accesses"])
        if window_sink is not None:
            window_sink.append(
                {
                    "index": index,
                    "ipc": ipc,
                    "instructions": w["instructions"],
                    "cycles": w["cycles"],
                    "miss_rate": miss_rate,
                    "start_record": w.get("start_record", 0),
                }
            )
        if index >= _MAX_WINDOW_ROWS:
            continue
        extra[f"win.{index}.ipc"] = ipc
        extra[f"win.{index}.instructions"] = float(w["instructions"])
        extra[f"win.{index}.cycles"] = float(w["cycles"])
        extra[f"win.{index}.miss_rate"] = miss_rate
    return result
