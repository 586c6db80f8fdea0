"""Per-layer host-time spans, attached to a built simulator from outside.

:class:`SpanTimer` wraps callables with a stack-based timer: each span
charges its elapsed time to its own total and to the span directly
enclosing it, so a span's *self* time is its total minus the time of
the spans nested directly inside it.  Aggregates are kept per name in
memory (calls, total, self) and read once when the run ends.

:class:`LayerProbe` wires those spans onto the public methods of one
:class:`~repro.sim.simulator.Simulator`'s components at instance level,
after construction and before ``run()`` (the core hoists bound methods
when a run starts, so instance attributes are what it calls).  The
sampling fast-forward engine is built inside the run, so its ``replay``
is patched on the class instead and restored by :meth:`LayerProbe.close`.
The probe also totals the components' own counters across the warm-up
resets, so its counts cover the whole run, as host time does.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

#: Every span a traced run reports, grouped by layer (module) name.
SPANS = (
    "cpu.advance",
    "memory.access",
    "memory.issue_prefetch",
    "memory.bus_acquire",
    "streambuf.probe",
    "streambuf.on_l1_miss",
    "streambuf.tick",
    "streambuf.next_event_cycle",
    "streambuf.schedule",
    "streambuf.find_block",
    "streambuf.pool",
    "predictors.train",
    "predictors.next_prediction",
    "predictors.warm",
    "sampling.replay",
)

#: Exact counts a traced run reads from the components after the run.
COUNTS = (
    "cpu.cycles",
    "cpu.cycles_skipped_frac",
    "memory.demand_misses",
    "memory.l1_l2_bus_util",
    "memory.l2_mem_bus_util",
    "memory.avg_load_latency_cyc",
    "streambuf.predictions",
    "streambuf.dup_prediction_frac",
    "streambuf.prefetch_accuracy",
    "streambuf.late_hit_frac",
    "streambuf.alloc_denied_frac",
    "streambuf.pool_steals",
    "sampling.windows",
    "sampling.ff_records",
)

_HIERARCHY_COUNTERS = ("demand_misses", "sb_hits", "sb_pending_hits")
_CONTROLLER_COUNTERS = (
    "predictions_made",
    "duplicate_predictions",
    "prefetches_issued",
    "prefetches_used",
    "allocations",
    "allocations_denied",
)


class SpanTimer:
    """Per-name call count, total time and self time of wrapped callables."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        #: One frame per open span: the time its direct children took.
        self._stack: List[List[float]] = []
        self.calls: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` timed as span ``name``."""
        clock = self._clock
        stack = self._stack
        calls = self.calls
        total = self.total
        self_time = self.self_time
        calls.setdefault(name, 0)
        total.setdefault(name, 0.0)
        self_time.setdefault(name, 0.0)

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                calls[name] += 1
                total[name] += elapsed
                self_time[name] += elapsed - frame[0]

        span.__wrapped__ = fn
        return span

    def patch(self, obj, attr: str, name: str) -> None:
        """Replace ``obj.attr`` with its timed wrapper."""
        setattr(obj, attr, self.wrap(name, getattr(obj, attr)))


class LayerProbe:
    """Spans and whole-run counters on one built, not yet run, simulator."""

    def __init__(self, simulator, timer: SpanTimer) -> None:
        from repro.sampling.fastforward import FastForwardEngine

        self.timer = timer
        self._simulator = simulator
        #: Every run state the core began (sampled runs: one per window).
        self._states: list = []
        #: Counter totals banked at each reset, and the live readers.
        self._totals: Dict[str, int] = {}
        self._readers: List[Callable[[], dict]] = []
        core = simulator.core
        hierarchy = simulator.hierarchy
        controller = simulator.controller
        patch = timer.patch

        patch(core, "advance", "cpu.advance")
        begin_run = core.begin_run

        def begin_and_keep(*args, **kwargs):
            state = begin_run(*args, **kwargs)
            self._states.append(state)
            return state

        core.begin_run = begin_and_keep

        patch(hierarchy, "access", "memory.access")
        patch(hierarchy, "issue_prefetch", "memory.issue_prefetch")
        patch(hierarchy.l1_l2_bus, "acquire", "memory.bus_acquire")
        patch(hierarchy.l2_mem_bus, "acquire", "memory.bus_acquire")
        self._keep_across_resets(
            hierarchy, _HIERARCHY_COUNTERS,
            lambda: {
                "l1_l2_busy": hierarchy.l1_l2_bus.busy_cycles,
                "l2_mem_busy": hierarchy.l2_mem_bus.busy_cycles,
            },
        )

        if controller is not None and hasattr(controller, "buffers"):
            for method in ("probe", "on_l1_miss", "tick", "next_event_cycle"):
                patch(controller, method, f"streambuf.{method}")
            patch(controller.scheduler, "pick_for_prediction", "streambuf.schedule")
            patch(controller.scheduler, "pick_for_prefetch", "streambuf.schedule")
            for buffer in controller.buffers:
                patch(buffer, "find_block", "streambuf.find_block")
            for method in ("take_entry", "release_entry", "release_stream"):
                patch(controller.sharing, method, "streambuf.pool")
            for method in ("train", "next_prediction", "warm"):
                patch(controller.predictor, method, f"predictors.{method}")
            pool = controller.pool
            self._keep_across_resets(
                controller, _CONTROLLER_COUNTERS,
                lambda: {"pool_steals": pool.steals if pool is not None else 0},
            )

        self._engine = FastForwardEngine
        self._replay = FastForwardEngine.replay
        FastForwardEngine.replay = timer.wrap("sampling.replay", self._replay)

    def close(self) -> None:
        """Undo the class-level fast-forward patch."""
        self._engine.replay = self._replay

    def _keep_across_resets(self, obj, names, extra: Callable[[], dict]) -> None:
        """Add ``obj``'s counters to the run totals before each reset."""
        totals = self._totals

        def read() -> dict:
            values = {name: getattr(obj, name) for name in names}
            values.update(extra())
            return values

        for key in read():
            totals.setdefault(key, 0)
        reset = obj.reset_stats

        def reset_and_keep() -> None:
            for key, value in read().items():
                totals[key] += value
            reset()

        obj.reset_stats = reset_and_keep
        self._readers.append(read)

    def spans(self, records: int) -> Dict[str, dict]:
        """``{span: {"calls", "self_us_per_record"}}`` for every span."""
        timer = self.timer
        return {
            name: {
                "calls": timer.calls.get(name, 0),
                "self_us_per_record": timer.self_time.get(name, 0.0)
                / records * 1e6,
            }
            for name in SPANS
        }

    def counts(self, result) -> Dict[str, float]:
        """The exact counts of :data:`COUNTS`, over the whole run."""
        # Base machines have no controller, so its counters read as zero.
        totals = dict.fromkeys(_CONTROLLER_COUNTERS + ("pool_steals",), 0)
        totals.update(self._totals)
        for read in self._readers:
            for key, value in read().items():
                totals[key] += value
        cycles = self._states[-1].cycle if self._states else 0
        skipped = self._simulator.perf.get("core.cycles_skipped")
        return {
            "cpu.cycles": cycles,
            "cpu.cycles_skipped_frac": _ratio(skipped, cycles),
            "memory.demand_misses": totals["demand_misses"],
            "memory.l1_l2_bus_util": _ratio(totals["l1_l2_busy"], cycles),
            "memory.l2_mem_bus_util": _ratio(totals["l2_mem_busy"], cycles),
            "memory.avg_load_latency_cyc": result.avg_load_latency,
            "streambuf.predictions": totals["predictions_made"],
            "streambuf.dup_prediction_frac": _ratio(
                totals["duplicate_predictions"], totals["predictions_made"]
            ),
            "streambuf.prefetch_accuracy": _ratio(
                totals["prefetches_used"], totals["prefetches_issued"]
            ),
            "streambuf.late_hit_frac": _ratio(
                totals["sb_pending_hits"],
                totals["sb_hits"] + totals["sb_pending_hits"],
            ),
            "streambuf.alloc_denied_frac": _ratio(
                totals["allocations_denied"],
                totals["allocations"] + totals["allocations_denied"],
            ),
            "streambuf.pool_steals": totals["pool_steals"],
            "sampling.windows": int(result.extra.get("windows", 0)),
            "sampling.ff_records": int(result.extra.get("ff_instructions", 0)),
        }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
