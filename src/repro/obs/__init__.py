"""Observability: structured metrics, event tracing, and run reports.

``repro.obs`` makes per-component behaviour — stream-buffer hit rates,
predictor accuracy, bus occupancy, priority-counter dynamics — visible
*over time* instead of only as end-of-run aggregates.  Three pieces:

- :mod:`repro.obs.metrics` — a metrics registry of probes and one
  miss-latency histogram.  The simulator's components are wired in
  *pull* style: probes read the counters each component already
  maintains, and the registry samples them every ``interval`` cycles
  at cycle boundaries the driver already stops at.  Hot paths carry no
  instrumentation, and results are bit-identical with metrics on or
  off.
- :mod:`repro.obs.tracing` — a ring-buffered structured event log
  (allocations, prefetch issue/fill/hit, priority bumps/agings, demand
  misses, invariant sweeps) with category filters and JSONL output.
- :mod:`repro.obs.report` — renders one run's metrics payload, or a
  whole campaign directory, into a self-contained markdown or HTML
  report reproducing the paper's figure shapes.

The campaign progress tracker lives in :mod:`repro.obs.progress`; only
campaigns use it, so it is imported from there, not re-exported here.

A :class:`~repro.sim.simulator.Simulator` holds each observer (its
``metrics`` registry and ``event_trace``) or ``None`` when it is off;
:func:`wire_simulator` points the simulator's components at them.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.metrics import (
    MISS_LATENCY_BOUNDS,
    HistogramMetric,
    MetricsRegistry,
)
from repro.obs.tracing import CATEGORIES, EventTrace, parse_categories, read_jsonl

__all__ = [
    "CATEGORIES",
    "EventTrace",
    "HistogramMetric",
    "MetricsRegistry",
    "parse_categories",
    "read_jsonl",
    "wire_simulator",
]


def wire_simulator(simulator: Any) -> None:
    """Point a simulator's components at its observers.

    Hands ``simulator.event_trace`` to the hierarchy and prefetch
    controller (they emit through it).  With ``simulator.metrics`` set,
    creates the one push-style instrument (the demand miss-latency
    histogram) and registers pull probes over every counter the
    components already keep: L1/L2 caches, both buses, both MSHR files,
    the TLB, the controller, the predictor, the scheduler, and each
    individual stream buffer.  An observer that is ``None`` leaves its
    component handles ``None``.
    """
    hierarchy = simulator.hierarchy
    controller = simulator.controller
    metrics = simulator.metrics
    hierarchy.obs_trace = simulator.event_trace
    if controller is not None:
        controller.obs_trace = simulator.event_trace
    if metrics is None:
        hierarchy.obs_latency_hist = None
        return
    hierarchy.obs_latency_hist = metrics.histogram(
        "hierarchy", "miss_latency", MISS_LATENCY_BOUNDS
    )
    _wire_hierarchy(metrics, hierarchy)
    if controller is not None:
        _wire_prefetcher(metrics, controller)


def _probe_attrs(
    metrics: MetricsRegistry, component: str, obj: Any, names
) -> None:
    """Register one attribute-reading probe per counter in ``names``."""
    for name in names:
        if hasattr(obj, name):
            metrics.probe(
                component, name, lambda o=obj, n=name: float(getattr(o, n))
            )


def _wire_hierarchy(metrics: MetricsRegistry, hierarchy: Any) -> None:
    """Probes over the memory hierarchy's existing statistics."""
    _probe_attrs(
        metrics, "hierarchy", hierarchy,
        (
            "demand_accesses", "demand_misses", "sb_hits", "sb_pending_hits",
            "prefetches_issued", "prefetches_redundant",
            "demand_l2_fetches", "demand_mem_fetches",
        ),
    )
    _probe_attrs(metrics, "l1", hierarchy.l1, ("accesses", "hits", "misses"))
    _probe_attrs(metrics, "l2", hierarchy.l2, ("accesses", "hits", "misses"))
    for name, bus in (
        ("bus_l1_l2", hierarchy.l1_l2_bus),
        ("bus_l2_mem", hierarchy.l2_mem_bus),
    ):
        _probe_attrs(metrics, name, bus, ("busy_cycles", "transactions"))
    for name, mshr in (
        ("mshr_l1", hierarchy.l1_mshr),
        ("mshr_l2", hierarchy.l2_mshr),
    ):
        _probe_attrs(
            metrics, name, mshr,
            ("allocations", "releases", "merges", "full_stalls"),
        )
        metrics.probe(name, "occupancy", lambda m=mshr: float(len(m)))
    _probe_attrs(metrics, "tlb", hierarchy.tlb, ("hits", "misses"))


def _wire_prefetcher(metrics: MetricsRegistry, controller: Any) -> None:
    """Probes over the prefetch controller, predictor, scheduler, and
    each stream buffer (when the architecture has them)."""
    _probe_attrs(
        metrics, "prefetcher", controller,
        (
            "prefetches_issued", "prefetches_used", "prefetches_discarded",
            "predictions_made", "duplicate_predictions", "allocations",
            "allocations_denied", "predicted_overtaken",
        ),
    )
    if hasattr(controller, "accuracy"):
        metrics.probe(
            "prefetcher", "accuracy", lambda c=controller: float(c.accuracy)
        )
    predictor = getattr(controller, "predictor", None)
    if predictor is not None:
        _probe_attrs(
            metrics, "predictor", predictor, ("trains", "correct_trains")
        )
        if hasattr(predictor, "accuracy"):
            metrics.probe(
                "predictor", "accuracy", lambda p=predictor: float(p.accuracy)
            )
    scheduler = getattr(controller, "scheduler", None)
    if scheduler is not None:
        _probe_attrs(
            metrics, "scheduler", scheduler,
            ("prediction_grants", "prefetch_grants"),
        )
    pool = getattr(controller, "pool", None)
    if pool is not None:
        metrics.probe("pool", "allocated", lambda p=pool: float(p.allocated))
        _probe_attrs(
            metrics, "pool", pool,
            ("acquires", "steals", "denials", "releases", "evicted_inflight"),
        )
    for buffer in getattr(controller, "buffers", ()):
        component = f"sb{buffer.index}"
        metrics.probe(
            component, "priority", lambda b=buffer: float(int(b.priority))
        )
        _probe_attrs(
            metrics, component, buffer, ("hits", "allocations")
        )
        metrics.probe(
            component, "occupied_entries",
            lambda b=buffer: float(b.occupied_entries),
        )


def metrics_payload(
    simulator: Any, result: Any, meta: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Assemble the JSON-able artifact ``repro-sim run --metrics`` writes.

    Bundles run metadata, the aggregate :class:`SimulationResult`, and
    the registry's interval and time series (when ``simulator.metrics``
    is set) into one self-describing document that
    :mod:`repro.obs.report` (and ``repro-sim report``) consumes.
    """
    import dataclasses

    from repro.workloads.cache import cache_stats

    payload: Dict[str, Any] = {
        "format": "repro-obs-metrics-v1",
        "meta": dict(meta or {}),
        "result": dataclasses.asdict(result),
        # Compiled-trace cache health: ``corrupt_recompiled`` > 0 means
        # checksum validation caught (and healed) damaged cache entries.
        "trace_cache": cache_stats(),
    }
    if simulator.metrics is not None:
        payload.update(simulator.metrics.to_payload())
    return payload
