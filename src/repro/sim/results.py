"""Simulation results: every statistic the paper's tables/figures report."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class SimulationResult:
    """Aggregated outcome of one simulation run (post warm-up)."""

    label: str
    instructions: int
    cycles: int
    ipc: float
    l1_miss_rate: float
    avg_load_latency: float
    load_fraction: float
    store_fraction: float
    branch_misprediction_rate: float
    l1_l2_bus_utilization: float
    l2_mem_bus_utilization: float
    prefetches_issued: int = 0
    prefetches_used: int = 0
    prefetch_accuracy: float = 0.0
    sb_allocations: int = 0
    sb_allocations_denied: int = 0
    forwarded_loads: int = 0
    tlb_miss_rate: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    def speedup_over(self, baseline: "SimulationResult") -> float:
        """Percent IPC speedup relative to ``baseline`` (Figure 5 metric)."""
        if baseline.ipc == 0:
            return 0.0
        return 100.0 * (self.ipc / baseline.ipc - 1.0)

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"{self.label}: IPC={self.ipc:.3f} "
            f"missrate={self.l1_miss_rate:.3f} "
            f"loadlat={self.avg_load_latency:.2f} "
            f"accuracy={self.prefetch_accuracy:.2f}"
        )
