"""End-to-end simulation driver, paper presets, and sweep helpers."""

from repro.sim.presets import (
    baseline_config,
    paper_configs,
    prefetch_config,
    psb_config,
    sharing_configs,
    stride_config,
)
from repro.sim.results import SimulationResult
from repro.sim.simulator import Simulator, simulate
from repro.sim.sweep import (
    cache_sweep,
    run_configs,
    sharing_sweep,
)

__all__ = [
    "baseline_config",
    "paper_configs",
    "prefetch_config",
    "psb_config",
    "sharing_configs",
    "stride_config",
    "SimulationResult",
    "Simulator",
    "simulate",
    "cache_sweep",
    "run_configs",
    "sharing_sweep",
]
