"""Registry of the benchmark stand-ins (Table 1, plus extensions)."""

from __future__ import annotations

from typing import Dict, Iterator, List, Type

from repro.errors import ConfigError
from repro.trace.record import TraceRecord
from repro.workloads.base import WorkloadGenerator
from repro.workloads.burg import BurgWorkload
from repro.workloads.deltablue import DeltaBlueWorkload
from repro.workloads.gs import GhostscriptWorkload
from repro.workloads.health import HealthWorkload
from repro.workloads.many_streams import ManyStreamsWorkload
from repro.workloads.sis import SisWorkload
from repro.workloads.turb3d import Turb3dWorkload

#: Table 1 order — the five pointer programs, then the FORTRAN program —
#: followed by extension workloads beyond the paper.
WORKLOADS: Dict[str, Type[WorkloadGenerator]] = {
    "health": HealthWorkload,
    "burg": BurgWorkload,
    "deltablue": DeltaBlueWorkload,
    "gs": GhostscriptWorkload,
    "sis": SisWorkload,
    "turb3d": Turb3dWorkload,
    "many_streams": ManyStreamsWorkload,
}

#: The paper's six benchmarks (Table 1) — the default scope for
#: paper-reproduction sweeps and the perf baselines; extension workloads
#: like ``many_streams`` are opted into explicitly.
PAPER_WORKLOADS = ("health", "burg", "deltablue", "gs", "sis", "turb3d")

#: The pointer-intensive subset the paper's averages are computed over.
POINTER_WORKLOADS = ("health", "burg", "deltablue", "gs", "sis")


def workload_names() -> List[str]:
    """Every registered workload name, paper benchmarks first."""
    return list(WORKLOADS)


def get_workload_generator(name: str, seed: int = 1) -> WorkloadGenerator:
    """Instantiate a workload generator by benchmark name.

    Raises :class:`~repro.errors.ConfigError` for an unknown name.
    """
    try:
        factory = WORKLOADS[name]
    except KeyError:
        known = ", ".join(WORKLOADS)
        raise ConfigError(
            f"unknown workload {name!r}; known: {known}", field="workload"
        ) from None
    return factory(seed=seed)


def get_workload(name: str, seed: int = 1) -> Iterator[TraceRecord]:
    """An unbounded trace for ``name`` (convenience over the generator)."""
    return get_workload_generator(name, seed=seed).generate()
