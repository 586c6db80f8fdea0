"""The benchmark's workloads: trace x machine x mode.

Each workload stresses a different layer of the simulator, so a change
to one layer shows on the workload that exercises it and not on the one
that bypasses it.  Why each exists is stated once, in ``BENCHMARK.json``
at the repository root; README.md gives the measured layer split behind
it.  Detailed runs warm up for the first 20% of their records, after
which statistics reset; caches start empty in every run.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

#: Root of the checkout the benchmark lives in (benchmarks/e2e/../..).
ROOT = Path(__file__).resolve().parents[2]
#: The simulator sources the benchmark measures.
SRC = ROOT / "src"

#: The tuned sampling shape gated by ``repro-sim bench --sampling``:
#: (period, window, warmup, strata, warm_confidence).
TUNED_SAMPLE = (50_000, 1_000, 500, 4, True)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: which trace, on which machine, how long."""

    trace: str
    machine: str
    records: int
    #: Sampling shape (see :data:`TUNED_SAMPLE`), or None for a detailed run.
    sample: Optional[Tuple[int, int, int, int, bool]] = None

    @property
    def warmup(self) -> int:
        """Warm-up instructions: 20% of a detailed run, none when sampled
        (sampled runs warm up inside each window)."""
        return 0 if self.sample else self.records // 5

    def config(self, sampled: bool = True):
        """The machine's ``SimConfig``; ``sampled=False`` drops sampling
        (the detailed reference a sampled estimate is scored against)."""
        from repro.cli import MACHINES

        config = MACHINES[self.machine]()
        if sampled and self.sample:
            period, window, warmup, strata, warm_confidence = self.sample
            config = config.with_sampling(
                period=period, window=window, warmup=warmup,
                strata=strata, warm_confidence=warm_confidence,
            )
        return config


WORKLOADS = {
    "sis-psb": Workload("sis", "psb", 60_000),
    "many_streams-harmonic": Workload("many_streams", "psb-harmonic", 50_000),
    "turb3d-base": Workload("turb3d", "base", 300_000),
    "health-psb": Workload("health", "psb", 150_000),
    "health-sampled": Workload("health", "psb", 1_000_000, sample=TUNED_SAMPLE),
}


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/``, or fail loudly.

    The benchmark measures the sources next to it, never an installed
    copy: a checkout without ``src/repro`` is an error.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"e2e benchmark: no simulator sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
