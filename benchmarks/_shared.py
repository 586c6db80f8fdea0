"""Shared machinery for the benchmark harness.

Figures 5-9 and Table 2 all report on the same 42 simulations (the
seven registered workloads x six machine configurations), so results
are computed once per pytest session and cached here.  Every benchmark
prints the rows or series of the table/figure it reproduces, alongside
the paper's qualitative expectation, so the comparison lives in the
output.

Run lengths are scaled for the Python substrate (the paper simulated
tens of millions of Alpha instructions per benchmark); EXPERIMENTS.md
records the paper-vs-measured comparison.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

from repro.config import SimConfig
from repro.runner import CampaignRunner, RunSpec, WorkloadSpec
from repro.sim import SimulationResult, baseline_config, paper_configs
from repro.workloads import workload_names

#: Trace records per run, warm-up included, and the warm-up length: a
#: run measures ``MAX_INSTRUCTIONS - WARMUP_INSTRUCTIONS`` instructions.
MAX_INSTRUCTIONS = int(os.environ.get("REPRO_BENCH_INSTRUCTIONS", 60_000))
WARMUP_INSTRUCTIONS = int(os.environ.get("REPRO_BENCH_WARMUP", 25_000))
SEED = int(os.environ.get("REPRO_BENCH_SEED", 1))

#: Worker processes for the evaluation matrix.  The runner is
#: fail-fast with no timeout, and runs inline unless several workers
#: share the matrix.
WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", 1))

_runner = CampaignRunner(
    isolation="process" if WORKERS > 1 else "inline",
    workers=WORKERS, on_error="fail",
)

#: Configuration labels in figure order, Base first.
CONFIG_LABELS = ("Base", "Stride", "2Miss-RR", "2Miss-Priority",
                 "ConfAlloc-RR", "ConfAlloc-Priority")

_cache: Dict[Tuple[str, str], SimulationResult] = {}


def configs_by_label() -> Dict[str, SimConfig]:
    labelled = {"Base": baseline_config()}
    labelled.update(paper_configs())
    return labelled


def run(workload: str, label: str) -> SimulationResult:
    """One cached simulation of ``workload`` under configuration ``label``."""
    return run_custom(workload, label, configs_by_label()[label])


def run_matrix() -> Dict[Tuple[str, str], SimulationResult]:
    """All 42 runs of the main evaluation (Figures 5-9, Table 2):
    every registered workload under each of ``CONFIG_LABELS``.

    With ``REPRO_BENCH_WORKERS > 1`` the not-yet-cached cells run as
    one parallel campaign instead of one single-point campaign at a
    time — same per-cell results (the runner's parallel schedule is
    result-identical), filled into the same cache.
    """
    labelled = configs_by_label()
    missing = [
        (workload, label)
        for workload in workload_names()
        for label in CONFIG_LABELS
        if (workload, label) not in _cache
    ]
    if WORKERS > 1 and len(missing) > 1:
        specs = [
            RunSpec(
                run_id=f"{workload}/{label}",
                config=labelled[label],
                trace=WorkloadSpec(workload, seed=SEED),
                max_instructions=MAX_INSTRUCTIONS,
                warmup_instructions=WARMUP_INSTRUCTIONS,
            )
            for workload, label in missing
        ]
        campaign = _runner.run(specs)
        for (workload, label), spec in zip(missing, specs):
            _cache[(workload, label)] = campaign.results[spec.run_id]
    else:
        for workload, label in missing:
            run(workload, label)
    return dict(_cache)


def run_custom(workload: str, label: str, config: SimConfig) -> SimulationResult:
    """A cached run under an ad-hoc configuration (sweeps)."""
    key = (workload, label)
    if key not in _cache:
        spec = RunSpec(
            run_id=f"{workload}/{label}",
            config=config,
            trace=WorkloadSpec(workload, seed=SEED),
            max_instructions=MAX_INSTRUCTIONS,
            warmup_instructions=WARMUP_INSTRUCTIONS,
        )
        # A one-point campaign; the fail-fast runner re-raises a failure.
        _cache[key] = _runner.run([spec]).results[spec.run_id]
    return _cache[key]


def speedup(workload: str, label: str) -> float:
    """Percent speedup of ``label`` over Base for ``workload``."""
    return run(workload, label).speedup_over(run(workload, "Base"))
