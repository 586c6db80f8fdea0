"""End-to-end simulation driver and paper presets.

Sweeps over many configurations run on :mod:`repro.runner`, which
imports this package; nothing here imports the runner or the bench
harness (:mod:`repro.perf.bench`).
"""

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
]
