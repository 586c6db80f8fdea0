"""Configuration presets matching the paper's evaluated machines.

Section 6 compares six configurations on every benchmark:

- ``Base``: the Section 5.1 machine with no prefetching;
- ``Stride``: Farkas et al.'s PC-stride stream buffers (two-miss filter,
  round-robin scheduling) — the best prior stream-buffer approach;
- four PSB variants crossing the allocation filter (two-miss vs.
  confidence) with the scheduler (round-robin vs. priority counters).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.config import (
    AllocationPolicy,
    BufferSharing,
    PrefetchConfig,
    PrefetcherKind,
    SchedulingPolicy,
    SimConfig,
    StreamBufferConfig,
)

#: Labels as they appear in Figures 5-9.
PAPER_PREFETCH_LABELS = (
    "Stride",
    "2Miss-RR",
    "2Miss-Priority",
    "ConfAlloc-RR",
    "ConfAlloc-Priority",
)

#: L1 geometries of Figure 10: (size_bytes, associativity, label).
FIGURE10_CACHES: List[Tuple[int, int, str]] = [
    (16 * 1024, 4, "16K 4-w"),
    (32 * 1024, 2, "32K 2-w"),
    (32 * 1024, 4, "32K 4-w"),
]


def baseline_config() -> SimConfig:
    """The Section 5.1 machine with no prefetching."""
    return SimConfig(prefetch=PrefetchConfig(kind=PrefetcherKind.NONE))


def prefetch_config(
    kind: PrefetcherKind,
    allocation: AllocationPolicy,
    scheduling: SchedulingPolicy,
) -> SimConfig:
    """Baseline machine plus the selected stream-buffer architecture."""
    stream_buffers = StreamBufferConfig(allocation=allocation, scheduling=scheduling)
    return SimConfig(
        prefetch=PrefetchConfig(kind=kind, stream_buffers=stream_buffers)
    )


def stride_config() -> SimConfig:
    """Farkas et al. PC-stride stream buffers (the paper's "Stride")."""
    return prefetch_config(
        PrefetcherKind.STRIDE_PC,
        AllocationPolicy.TWO_MISS,
        SchedulingPolicy.ROUND_ROBIN,
    )


def psb_config(
    allocation: AllocationPolicy = AllocationPolicy.CONFIDENCE,
    scheduling: SchedulingPolicy = SchedulingPolicy.PRIORITY,
) -> SimConfig:
    """A Predictor-Directed Stream Buffer machine (SFM predictor)."""
    return prefetch_config(PrefetcherKind.PREDICTOR_DIRECTED, allocation, scheduling)


def sequential_config() -> SimConfig:
    """Jouppi-style next-block stream buffers (extra historical baseline)."""
    return prefetch_config(
        PrefetcherKind.SEQUENTIAL,
        AllocationPolicy.ALWAYS,
        SchedulingPolicy.ROUND_ROBIN,
    )


def min_delta_config() -> SimConfig:
    """Palacharla & Kessler minimum-delta stream buffers (Section 3.3.2).

    The paper reports this scheme "uniformly outperformed" by the
    PC-stride detector; the prior-prefetcher ablation re-verifies that.
    """
    return prefetch_config(
        PrefetcherKind.MIN_DELTA,
        AllocationPolicy.TWO_MISS,
        SchedulingPolicy.ROUND_ROBIN,
    )


def next_line_config() -> SimConfig:
    """Smith's tagged next-line prefetching (Section 3.2)."""
    return SimConfig(prefetch=PrefetchConfig(kind=PrefetcherKind.NEXT_LINE))


def demand_markov_config() -> SimConfig:
    """Joseph & Grunwald's demand-based Markov prefetcher (Section 3.2)."""
    return SimConfig(prefetch=PrefetchConfig(kind=PrefetcherKind.DEMAND_MARKOV))


def sharing_configs() -> Dict[str, SimConfig]:
    """The buffer-sharing comparison: one PSB machine per policy.

    All three run the paper's best machine (ConfAlloc-Priority); only
    the entry-ownership policy differs.  ``fixed`` is bit-identical to
    :func:`psb_config`, the pooled policies share the same 8 x 4 = 32
    entries the fixed partition owns.  See :mod:`repro.streambuf.sharing`
    and ``docs/buffer_sharing.md``.
    """
    base = psb_config()
    return {
        "fixed": base.with_sharing(BufferSharing.FIXED),
        "harmonic": base.with_sharing(BufferSharing.HARMONIC),
        "credence": base.with_sharing(BufferSharing.CREDENCE),
    }


def paper_configs() -> Dict[str, SimConfig]:
    """The five prefetching configurations of Figures 5-9, by label."""
    return {
        "Stride": stride_config(),
        "2Miss-RR": psb_config(
            AllocationPolicy.TWO_MISS, SchedulingPolicy.ROUND_ROBIN
        ),
        "2Miss-Priority": psb_config(
            AllocationPolicy.TWO_MISS, SchedulingPolicy.PRIORITY
        ),
        "ConfAlloc-RR": psb_config(
            AllocationPolicy.CONFIDENCE, SchedulingPolicy.ROUND_ROBIN
        ),
        "ConfAlloc-Priority": psb_config(
            AllocationPolicy.CONFIDENCE, SchedulingPolicy.PRIORITY
        ),
    }
