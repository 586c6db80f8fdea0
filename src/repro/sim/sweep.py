"""Parameter sweeps over configurations and workloads.

Figures 5-9 sweep configurations at a fixed machine; Figure 10 sweeps
the L1 data-cache geometry; Figure 11 sweeps the disambiguation policy.
These helpers run a fresh machine per point and return labelled results.

Execution is delegated to :mod:`repro.runner`: by default every point
runs inline and fail-fast (the historical behaviour — same results,
same exceptions), but passing a configured
:class:`~repro.runner.CampaignRunner` turns any sweep into a resilient
campaign with process isolation, timeouts, retries, and checkpointed
resume::

    from repro.runner import CampaignRunner

    runner = CampaignRunner("fig10-campaign", timeout=300, retries=1)
    results = cache_sweep(base, trace_factory, runner=runner)

Failed points are simply absent from the returned dict when the runner's
policy is ``on_error="skip"``; consult ``runner``'s campaign manifest
for the failure records.

``workers=N`` is a shorthand for a process-isolated fail-fast runner
that keeps N points in flight at once — same results as the default
inline runner, in less wall-clock.  Note that lambda/closure trace
factories cannot cross the process boundary and run serially inline;
pass picklable specs (or a :class:`~repro.runner.WorkloadSpec`-based
campaign) to actually parallelise.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.config import SimConfig
from repro.runner.campaign import CampaignRunner, RunSpec
from repro.sim.results import SimulationResult
from repro.trace.record import TraceRecord

#: A factory producing a fresh trace per run (traces are single-use).
TraceFactory = Callable[[], Iterable[TraceRecord]]

#: L1 geometries of Figure 10: (size_bytes, associativity, label).
FIGURE10_CACHES: List[Tuple[int, int, str]] = [
    (16 * 1024, 4, "16K 4-w"),
    (32 * 1024, 2, "32K 2-w"),
    (32 * 1024, 4, "32K 4-w"),
]


def _default_runner(workers: int = 1) -> CampaignRunner:
    """Legacy semantics: in-process, no retry, raise on first failure.

    With ``workers > 1`` the runner keeps fail-fast semantics but fans
    points out across persistent worker processes.
    """
    if workers > 1:
        return CampaignRunner(
            on_error="fail", isolation="process", workers=workers
        )
    return CampaignRunner(on_error="fail", isolation="inline")


def _run_specs(
    specs: List[RunSpec],
    runner: Optional[CampaignRunner],
    workers: int = 1,
) -> Dict[str, SimulationResult]:
    campaign = (runner or _default_runner(workers)).run(specs)
    # Keep sweep order (campaign.results is insertion-ordered already,
    # but resumed points interleave identically because specs drive it).
    return {
        spec.run_id: campaign.results[spec.run_id]
        for spec in specs
        if spec.run_id in campaign.results
    }


def run_configs(
    configs: Dict[str, SimConfig],
    trace_factory: TraceFactory,
    max_instructions: Optional[int] = None,
    warmup_instructions: int = 0,
    runner: Optional[CampaignRunner] = None,
    workers: int = 1,
) -> Dict[str, SimulationResult]:
    """Run every labelled config against fresh copies of the same workload."""
    specs = [
        RunSpec(
            run_id=label,
            config=config,
            trace=trace_factory,
            max_instructions=max_instructions,
            warmup_instructions=warmup_instructions,
        )
        for label, config in configs.items()
    ]
    return _run_specs(specs, runner, workers)


def sharing_sweep(
    trace_factory: TraceFactory,
    max_instructions: Optional[int] = None,
    warmup_instructions: int = 0,
    pool_entries: Optional[int] = None,
    runner: Optional[CampaignRunner] = None,
    workers: int = 1,
) -> Dict[str, SimulationResult]:
    """Run the fixed-vs-harmonic-vs-credence comparison on one workload.

    One PSB machine per buffer-sharing policy
    (:func:`repro.sim.presets.sharing_configs`); feed the returned dict
    to :func:`repro.analysis.comparison_report` with
    ``baseline_label="fixed"`` to render the comparison table of
    ``docs/buffer_sharing.md``.
    """
    from repro.sim.presets import sharing_configs

    return run_configs(
        sharing_configs(pool_entries),
        trace_factory,
        max_instructions=max_instructions,
        warmup_instructions=warmup_instructions,
        runner=runner,
        workers=workers,
    )


def cache_sweep(
    base_config: SimConfig,
    trace_factory: TraceFactory,
    max_instructions: Optional[int] = None,
    warmup_instructions: int = 0,
    geometries: Optional[List[Tuple[int, int, str]]] = None,
    runner: Optional[CampaignRunner] = None,
    workers: int = 1,
) -> Dict[str, SimulationResult]:
    """Run one config across the Figure 10 L1 geometries."""
    geometries = geometries if geometries is not None else FIGURE10_CACHES
    specs = [
        RunSpec(
            run_id=label,
            config=base_config.with_l1(size_bytes, associativity),
            trace=trace_factory,
            max_instructions=max_instructions,
            warmup_instructions=warmup_instructions,
        )
        for size_bytes, associativity, label in geometries
    ]
    return _run_specs(specs, runner, workers)
