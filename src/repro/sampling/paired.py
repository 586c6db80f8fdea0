"""Matched-pair sampled comparisons: N machines, one window grid.

The sampler's dominant error term is a systematic cold-start *bias*:
functional fast-forward warms tags and predictor tables faster than
detailed execution would, so every measured window opens a little
optimistic.  An absolute sampled IPC inherits that bias — but the
paper's figures compare *machines*, and when both machines of a
comparison are sampled over the **same midpoint window grid from the
same trace** the bias term is (to first order) common to both legs and
cancels in the ratio.  That is what this driver does:

- the trace is materialised once and every leg replays the identical
  record sequence (one shared trace cursor, not one per-leg generator
  that could drift);
- every leg runs the same :class:`~repro.config.SamplingConfig`, so
  window placement — a pure function of record counts — produces the
  same grid, which the driver *verifies* window by window
  (:class:`~repro.errors.IntegrityError` on any mismatch rather than a
  silently skewed ratio);
- per-window IPC ratios against the baseline leg are aggregated into a
  mean and a 95% confidence interval, alongside the ratio of the
  stitched whole-trace IPCs (the Figure 5 speedup estimator).

:func:`paired_from_results` is the pure stitching step: it verifies the
grids and computes the paired statistics from the legs' results and
window rows.  ``repro-sim compare --sample`` and ``bench --sampling``
run comparisons through :func:`run_paired`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.config import SimConfig
from repro.errors import IntegrityError, SimulationError
from repro.sim.results import SimulationResult
from repro.stats import ratio
from repro.trace.record import TraceRecord


@dataclass
class PairStats:
    """One machine's paired comparison against the baseline leg."""

    label: str
    baseline: str
    #: Ratio of stitched sampled IPCs (label / baseline) — the paired
    #: whole-trace relative-IPC estimate.
    rel_ipc: float
    #: ``100 * (rel_ipc - 1)``: the Figure 5 percent-speedup metric.
    speedup_percent: float
    #: Mean of the per-window IPC ratios.
    ratio_mean: float
    #: 95% confidence interval over the per-window IPC ratios.
    ratio_ci95: float
    #: Number of matched window pairs behind the estimate.
    windows: int


@dataclass
class PairedResult:
    """All legs of a matched-pair sampled comparison, stitched."""

    baseline: str
    #: The shared sampling shape every leg ran under.
    sample: Dict[str, float]
    #: Stitched per-leg results, in the order the configs were given.
    results: Dict[str, SimulationResult]
    #: Uncapped per-window rows per leg (index, ipc, instructions,
    #: cycles, miss_rate, start_record).
    window_rows: Dict[str, List[dict]] = field(default_factory=dict)
    #: Per-leg paired statistics (every non-baseline label).
    pairs: Dict[str, PairStats] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready form (manifests, report rendering)."""
        return {
            "paired": True,
            "baseline": self.baseline,
            "sample": dict(self.sample),
            "results": {
                label: asdict(result)
                for label, result in self.results.items()
            },
            "window_rows": {
                label: [dict(row) for row in rows]
                for label, rows in self.window_rows.items()
            },
            "pairs": {
                label: asdict(stats)
                for label, stats in self.pairs.items()
            },
        }


def _check_same_grid(
    baseline: str, base_rows: List[dict], label: str, rows: List[dict]
) -> None:
    """Both legs must have measured the identical window grid."""
    if len(rows) != len(base_rows):
        raise IntegrityError(
            f"paired legs disagree on the window grid: {baseline!r} "
            f"measured {len(base_rows)} windows but {label!r} measured "
            f"{len(rows)}"
        )
    for base_row, row in zip(base_rows, rows):
        if (
            base_row["start_record"] != row["start_record"]
            or base_row["instructions"] != row["instructions"]
        ):
            raise IntegrityError(
                f"paired legs disagree on window {row['index']}: "
                f"{baseline!r} measured {base_row['instructions']} "
                f"instructions at record {base_row['start_record']} but "
                f"{label!r} measured {row['instructions']} at record "
                f"{row['start_record']}"
            )


def paired_from_results(
    results: Dict[str, SimulationResult],
    window_rows: Dict[str, List[dict]],
    baseline: Optional[str] = None,
) -> PairedResult:
    """Stitch per-leg sampled results into a :class:`PairedResult`.

    Pure function of its inputs.  ``baseline`` defaults to the first
    label; every leg's window grid is verified against the baseline's,
    and the shared sampling shape is read from the baseline's result.
    """
    if len(results) < 2:
        raise SimulationError(
            "a paired comparison needs at least two legs, got "
            f"{len(results)}"
        )
    labels = list(results)
    if baseline is None:
        baseline = labels[0]
    if baseline not in results:
        raise SimulationError(
            f"paired baseline {baseline!r} is not one of {labels}"
        )
    base_rows = window_rows.get(baseline, [])
    if not base_rows:
        raise SimulationError(
            f"paired baseline {baseline!r} measured no windows"
        )
    extra = results[baseline].extra
    sample = {
        key: extra[key]
        for key in (
            "sample_period", "sample_window", "sample_warmup",
            "sample_strata", "sample_warm_confidence",
        )
        if key in extra
    }
    pairs: Dict[str, PairStats] = {}
    base_ipc = results[baseline].ipc
    for label in labels:
        if label == baseline:
            continue
        rows = window_rows.get(label, [])
        _check_same_grid(baseline, base_rows, label, rows)
        ratios = [
            ratio(row["ipc"], base_row["ipc"])
            for base_row, row in zip(base_rows, rows)
        ]
        mean = sum(ratios) / len(ratios)
        ci95 = 0.0
        if len(ratios) >= 2:
            variance = sum((x - mean) ** 2 for x in ratios) / (
                len(ratios) - 1
            )
            ci95 = 1.96 * math.sqrt(variance) / math.sqrt(len(ratios))
        rel = ratio(results[label].ipc, base_ipc)
        pairs[label] = PairStats(
            label=label,
            baseline=baseline,
            rel_ipc=rel,
            speedup_percent=100.0 * (rel - 1.0),
            ratio_mean=mean,
            ratio_ci95=ci95,
            windows=len(ratios),
        )
    return PairedResult(
        baseline=baseline,
        sample=sample,
        results=dict(results),
        window_rows={label: list(window_rows[label]) for label in labels},
        pairs=pairs,
    )


def run_paired(
    configs: Dict[str, SimConfig],
    trace: Iterable[TraceRecord],
    max_instructions: Optional[int] = None,
    baseline: Optional[str] = None,
) -> PairedResult:
    """Sample every config over the same window grid of one trace.

    ``configs`` maps labels to machine configs; each must carry the
    *same* :class:`~repro.config.SamplingConfig` (different sampling
    shapes would place different grids, and the bias would no longer
    cancel).  ``baseline`` names the denominator leg (default: the first
    label).
    """
    from repro.sim.simulator import Simulator

    if len(configs) < 2:
        raise SimulationError(
            f"a paired comparison needs at least two configs, got "
            f"{len(configs)}"
        )
    labels = list(configs)
    sampling = configs[labels[0]].sampling
    if sampling is None:
        raise SimulationError(
            f"paired config {labels[0]!r} has no SimConfig.sampling"
        )
    for label in labels[1:]:
        other = configs[label].sampling
        if other is None:
            raise SimulationError(
                f"paired config {label!r} has no SimConfig.sampling"
            )
        if other != sampling:
            raise SimulationError(
                f"paired configs must share one SamplingConfig: "
                f"{label!r} has {other}, {labels[0]!r} has {sampling}"
            )
    # One shared trace cursor: materialise the record sequence once so
    # every leg replays byte-identical input (a per-leg generator could
    # legally differ between instantiations).  Workload generators are
    # unbounded streams, so only the records the legs can consume are
    # pulled — no leg reads past ``max_instructions``.
    if isinstance(trace, (list, tuple)):
        records = trace
    elif max_instructions is not None:
        records = list(itertools.islice(trace, max_instructions))
    else:
        records = list(trace)
    results: Dict[str, SimulationResult] = {}
    window_rows: Dict[str, List[dict]] = {}
    for label in labels:
        rows: List[dict] = []
        results[label] = Simulator(configs[label]).run(
            iter(records),
            max_instructions=max_instructions,
            label=label,
            window_sink=rows,
        )
        window_rows[label] = rows
    return paired_from_results(
        results, window_rows, baseline=baseline
    )
