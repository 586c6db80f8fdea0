"""Configuration dataclasses for every simulated component.

All values default to the baseline architecture of Section 5.1 of the
paper.  Configurations are frozen so a single config object can safely be
shared between sweeps; derived values (set counts, transfer cycles) are
computed by the components that consume them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

from repro.errors import ConfigError
from repro.utils import is_power_of_two


def _require(condition: bool, owner: str, field_name: str, message: str) -> None:
    """Raise a field-labelled :class:`ConfigError` unless ``condition``."""
    if not condition:
        qualified = f"{owner}.{field_name}"
        raise ConfigError(f"{qualified}: {message}", field=qualified)


class DisambiguationPolicy(Enum):
    """Load/store memory disambiguation policy (Section 6.1).

    ``PERFECT_STORE_SETS``: a load only waits on earlier in-flight stores
    to the same word and receives the value through a 2-cycle forward.
    ``NO_DISAMBIGUATION``: a load waits until every prior store has issued.
    """

    PERFECT_STORE_SETS = "perfect-store-sets"
    NO_DISAMBIGUATION = "no-disambiguation"


class PrefetcherKind(Enum):
    """Which prefetcher architecture fronts the L2 (Sections 3 and 6)."""

    NONE = "none"
    SEQUENTIAL = "sequential"  # Jouppi next-block streaming (extra baseline)
    STRIDE_PC = "stride-pc"  # Farkas et al. PC-stride stream buffers
    PREDICTOR_DIRECTED = "psb"  # this paper
    MIN_DELTA = "min-delta"  # Palacharla & Kessler stream buffers
    NEXT_LINE = "next-line"  # Smith's tagged next-line prefetching
    DEMAND_MARKOV = "demand-markov"  # Joseph & Grunwald Markov prefetcher


class InvariantLevel(Enum):
    """How aggressively the integrity layer checks runtime invariants.

    ``OFF`` disables checking entirely (zero overhead).  ``CHEAP``
    samples the hook points every 64th cycle, miss or prefetch,
    catching persistent corruption at a few percent overhead.
    ``FULL`` checks every hook invocation — the validation mode used by
    the smoke suite and the acceptance tests.
    """

    OFF = "off"
    CHEAP = "cheap"
    FULL = "full"


class AllocationPolicy(Enum):
    """Stream-buffer allocation filter (Section 4.3)."""

    ALWAYS = "always"
    TWO_MISS = "two-miss"
    CONFIDENCE = "confidence"


class SchedulingPolicy(Enum):
    """Stream-buffer predictor/bus scheduling (Section 4.4)."""

    ROUND_ROBIN = "round-robin"
    PRIORITY = "priority"


class BufferSharing(Enum):
    """How stream-buffer entries are partitioned across streams.

    ``FIXED`` is the paper's static partition (each buffer owns
    ``entries_per_buffer`` slots) and is bit-identical to the
    pre-sharing simulator.  ``HARMONIC`` and ``CREDENCE`` treat the
    entries as one shared pool allocated online across streams — see
    :mod:`repro.streambuf.sharing`.
    """

    FIXED = "fixed"
    HARMONIC = "harmonic"
    CREDENCE = "credence"


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    associativity: int
    block_size: int
    hit_latency: int
    mshr_entries: int = 16

    def __post_init__(self) -> None:
        owner = f"CacheConfig({self.name})"
        _require(self.size_bytes > 0, owner, "size_bytes", "must be positive")
        _require(
            self.associativity > 0, owner, "associativity", "must be positive"
        )
        _require(self.hit_latency >= 0, owner, "hit_latency", "must be >= 0")
        _require(
            self.mshr_entries > 0, owner, "mshr_entries", "must be positive"
        )
        _require(
            self.block_size > 0 and is_power_of_two(self.block_size),
            owner, "block_size", "must be a power of two",
        )
        _require(
            self.size_bytes % (self.block_size * self.associativity) == 0,
            owner, "size_bytes", "not divisible into sets",
        )
        _require(self.num_sets >= 1, owner, "size_bytes", "fewer than one set")

    @property
    def num_sets(self) -> int:
        """Number of sets this geometry divides into."""
        return self.size_bytes // (self.block_size * self.associativity)

    @property
    def num_blocks(self) -> int:
        """Total number of block frames in the cache."""
        return self.size_bytes // self.block_size


@dataclass(frozen=True)
class BusConfig:
    """A bus that moves one request at a time at a fixed bytes/cycle rate."""

    name: str
    bytes_per_cycle: int

    def __post_init__(self) -> None:
        _require(
            self.bytes_per_cycle > 0,
            f"BusConfig({self.name})", "bytes_per_cycle", "must be positive",
        )

    def transfer_cycles(self, num_bytes: int) -> int:
        """Cycles the bus stays busy moving ``num_bytes``."""
        return max(1, -(-num_bytes // self.bytes_per_cycle))


@dataclass(frozen=True)
class MemoryConfig:
    """Main-memory (DRAM) access parameters."""

    access_latency: int = 120

    def __post_init__(self) -> None:
        _require(
            self.access_latency >= 0,
            "MemoryConfig", "access_latency", "must be >= 0",
        )


@dataclass(frozen=True)
class TlbConfig:
    """Data TLB used to translate prefetch addresses (Section 4.5)."""

    entries: int = 128
    page_size: int = 4096
    miss_latency: int = 30

    def __post_init__(self) -> None:
        _require(self.entries > 0, "TlbConfig", "entries", "must be positive")
        _require(
            self.page_size > 0 and is_power_of_two(self.page_size),
            "TlbConfig", "page_size", "must be a power of two",
        )
        _require(
            self.miss_latency >= 0, "TlbConfig", "miss_latency", "must be >= 0"
        )


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core parameters (Section 5.1)."""

    fetch_width: int = 8
    issue_width: int = 8
    retire_width: int = 8
    rob_entries: int = 128
    lsq_entries: int = 64
    branch_predictions_per_cycle: int = 2
    mispredict_penalty: int = 8
    store_forward_latency: int = 2
    gshare_history_bits: int = 12
    disambiguation: DisambiguationPolicy = DisambiguationPolicy.PERFECT_STORE_SETS
    int_alu_units: int = 8
    load_store_units: int = 4
    fp_add_units: int = 2
    int_mul_div_units: int = 2
    fp_mul_div_units: int = 2

    def __post_init__(self) -> None:
        positive = (
            "fetch_width", "issue_width", "retire_width",
            "rob_entries", "lsq_entries", "branch_predictions_per_cycle",
            "int_alu_units", "load_store_units", "fp_add_units",
            "int_mul_div_units", "fp_mul_div_units",
        )
        for name in positive:
            _require(
                getattr(self, name) > 0, "CoreConfig", name, "must be positive"
            )
        _require(
            self.mispredict_penalty >= 0,
            "CoreConfig", "mispredict_penalty", "must be >= 0",
        )
        _require(
            self.gshare_history_bits > 0,
            "CoreConfig", "gshare_history_bits", "must be positive",
        )


@dataclass(frozen=True)
class StridePredictorConfig:
    """PC-indexed two-delta stride table (Sections 2.1 and 6)."""

    entries: int = 256
    associativity: int = 4
    confidence_max: int = 7

    def __post_init__(self) -> None:
        owner = "StridePredictorConfig"
        _require(self.entries > 0, owner, "entries", "must be positive")
        _require(
            self.associativity > 0, owner, "associativity", "must be positive"
        )
        _require(
            self.confidence_max > 0, owner, "confidence_max",
            "must be positive",
        )


@dataclass(frozen=True)
class MarkovPredictorConfig:
    """First-order differential Markov table (Section 4.2)."""

    entries: int = 2048
    delta_bits: int = 16
    associativity: int = 4

    def __post_init__(self) -> None:
        owner = "MarkovPredictorConfig"
        _require(self.entries > 0, owner, "entries", "must be positive")
        _require(self.delta_bits > 0, owner, "delta_bits", "must be positive")
        _require(
            self.associativity > 0, owner, "associativity", "must be positive"
        )


@dataclass(frozen=True)
class StreamBufferConfig:
    """Stream-buffer array parameters (Sections 4 and 6)."""

    num_buffers: int = 8
    entries_per_buffer: int = 4
    allocation: AllocationPolicy = AllocationPolicy.CONFIDENCE
    scheduling: SchedulingPolicy = SchedulingPolicy.PRIORITY
    confidence_threshold: int = 1
    priority_max: int = 12
    priority_hit_bonus: int = 2
    priority_age_period: int = 10  # L1 data-cache misses between agings
    priority_age_amount: int = 1
    #: Section 4.5: store the TLB translation with each stream buffer and
    #: only re-walk when a prefetch crosses a page boundary.
    cache_tlb_translations: bool = False
    #: Section 3.3.2: Jouppi's original buffers were FIFOs probed only at
    #: the head; Farkas et al. made the lookup fully associative (the
    #: model the paper uses).  False selects the FIFO behaviour.
    associative_lookup: bool = True
    #: Section 3.3.2 / 4.1: Farkas et al. forbid two buffers following
    #: overlapping streams; disabling the check lets duplicate blocks be
    #: prefetched twice (an ablation knob).
    check_overlap: bool = True
    #: Beyond the paper: how entries are partitioned across streams.
    #: ``FIXED`` (the default) reproduces the paper's 8 x 4 exactly;
    #: the pooled policies share one entry pool online
    #: (:mod:`repro.streambuf.sharing`).
    sharing: BufferSharing = BufferSharing.FIXED
    #: Shared-pool capacity for the pooled sharing policies.  ``None``
    #: (the default) sizes the pool at ``num_buffers *
    #: entries_per_buffer`` — the same silicon as the fixed partition.
    #: Ignored under ``FIXED`` sharing.
    pool_entries: Optional[int] = None

    def __post_init__(self) -> None:
        owner = "StreamBufferConfig"
        _require(self.num_buffers > 0, owner, "num_buffers", "must be positive")
        _require(
            self.entries_per_buffer > 0,
            owner, "entries_per_buffer", "must be positive",
        )
        _require(
            self.pool_entries is None or self.pool_entries > 0,
            owner, "pool_entries", "must be positive when set",
        )
        _require(
            self.confidence_threshold >= 0,
            owner, "confidence_threshold", "must be >= 0",
        )
        _require(
            self.priority_max > 0, owner, "priority_max", "must be positive"
        )
        _require(
            self.priority_hit_bonus >= 0,
            owner, "priority_hit_bonus", "must be >= 0",
        )
        _require(
            self.priority_age_period > 0,
            owner, "priority_age_period", "must be positive",
        )
        _require(
            self.priority_age_amount >= 0,
            owner, "priority_age_amount", "must be >= 0",
        )

    @property
    def pool_size(self) -> int:
        """Shared-pool capacity: ``pool_entries`` or the full 8 x 4."""
        if self.pool_entries is not None:
            return self.pool_entries
        return self.num_buffers * self.entries_per_buffer


@dataclass(frozen=True)
class PrefetchConfig:
    """Which prefetcher to build and how to configure it."""

    kind: PrefetcherKind = PrefetcherKind.PREDICTOR_DIRECTED
    stream_buffers: StreamBufferConfig = field(default_factory=StreamBufferConfig)
    stride: StridePredictorConfig = field(default_factory=StridePredictorConfig)
    markov: MarkovPredictorConfig = field(default_factory=MarkovPredictorConfig)

    def __post_init__(self) -> None:
        # The allocation filter compares stream-buffer confidence against
        # the stride predictor's saturating counter, so the threshold must
        # lie inside that counter's range to ever admit or deny anything.
        _require(
            self.stream_buffers.confidence_threshold
            <= self.stride.confidence_max,
            "PrefetchConfig", "stream_buffers.confidence_threshold",
            f"outside counter range [0, {self.stride.confidence_max}]",
        )


@dataclass(frozen=True)
class SamplingConfig:
    """SMARTS-style systematic sampling (fast-forward + measured windows).

    The trace is divided into back-to-back periods of ``period`` records.
    Each period starts with a detailed window of ``warmup + window``
    instructions — the first ``warmup`` warm the timing state and are
    discarded, the remaining ``window`` are measured — and the rest of
    the period is replayed by the functional fast-forward engine
    (:mod:`repro.sampling`), which warms cache tags, branch-predictor
    state, and prefetcher tables at trace-replay speed.
    """

    #: Records per sampling period (detailed window + fast-forward gap).
    period: int = 50_000
    #: Measured detailed instructions per period.
    window: int = 1_000
    #: Detailed warm-up instructions preceding each measured window.
    warmup: int = 500
    #: Number of strata each period subdivides into.  ``1`` (the
    #: default) is the classic SMARTS grid: one ``window`` at each
    #: period's midpoint.  With ``s > 1`` the period's detailed budget
    #: splits into ``s`` sub-windows of ``window / s`` instructions
    #: (each preceded by ``warmup / s`` warm-up), one at the midpoint of
    #: each of the period's ``s`` strata — the same measured fraction
    #: spread across ``s`` phases of the period, so the estimate stops
    #: depending on which phase of a long program loop the single
    #: midpoint happened to land on (the phase-alignment bias visible on
    #: strongly phased workloads).  Must divide ``period``, ``window``,
    #: and ``warmup`` evenly.
    strata: int = 1
    #: Timing-aware predictor warm-up: when set, the fast-forward engine
    #: warms prefetcher state through
    #: :meth:`~repro.memory.hierarchy.PrefetcherPort.warm` in its
    #: ``detuned`` mode, which trains the address/history tables at full
    #: rate but moves the accuracy-confidence and priority counters at a
    #: detuned rate — matching detailed steady state, where prefetch hits
    #: remove training events, instead of overshooting it.  Off by
    #: default so existing sampled results stay bit-identical.
    warm_confidence: bool = False

    def __post_init__(self) -> None:
        owner = "SamplingConfig"
        _require(self.period > 0, owner, "period", "must be positive")
        _require(self.window > 0, owner, "window", "must be positive")
        _require(self.warmup >= 0, owner, "warmup", "must be >= 0")
        _require(self.strata > 0, owner, "strata", "must be positive")
        if self.strata > 1:
            _require(
                self.period % self.strata == 0,
                owner, "strata", "must divide period evenly",
            )
            _require(
                self.window % self.strata == 0
                and self.window >= self.strata,
                owner, "strata", "must divide window evenly",
            )
            _require(
                self.warmup % self.strata == 0,
                owner, "strata", "must divide warmup evenly",
            )
        _require(
            self.window + self.warmup < self.period,
            owner, "window",
            "window + warmup must be smaller than the period",
        )

    @property
    def detailed_per_period(self) -> int:
        """Instructions simulated in detail each period."""
        return self.window + self.warmup


@dataclass(frozen=True)
class SimConfig:
    """Top-level simulation configuration: the paper's baseline machine."""

    core: CoreConfig = field(default_factory=CoreConfig)
    l1_data: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L1D",
            size_bytes=32 * 1024,
            associativity=4,
            block_size=32,
            hit_latency=1,
        )
    )
    l2_unified: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L2",
            size_bytes=1024 * 1024,
            associativity=4,
            block_size=64,
            hit_latency=12,
            mshr_entries=16,
        )
    )
    l1_l2_bus: BusConfig = field(
        default_factory=lambda: BusConfig(name="L1-L2", bytes_per_cycle=8)
    )
    l2_mem_bus: BusConfig = field(
        default_factory=lambda: BusConfig(name="L2-Mem", bytes_per_cycle=4)
    )
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    tlb: TlbConfig = field(default_factory=TlbConfig)
    prefetch: PrefetchConfig = field(
        default_factory=lambda: PrefetchConfig(kind=PrefetcherKind.NONE)
    )
    l2_pipeline_depth: int = 3
    #: Event-driven fast path: when the core is provably quiescent the
    #: main loop jumps straight to the next interesting cycle instead of
    #: stepping one cycle at a time.  Results are bit-identical either
    #: way (the equivalence tests assert it); the switch exists so any
    #: suspected fast-path divergence can be ruled out in one run.
    event_driven: bool = True
    #: Runtime invariant checking level (see :class:`InvariantLevel`).
    invariants: InvariantLevel = InvariantLevel.OFF
    #: When set, runs use SMARTS-style systematic sampling: detailed
    #: measured windows alternating with functional fast-forward
    #: (:mod:`repro.sampling`).  ``None`` (the default) simulates every
    #: instruction in detail; the detailed path is untouched by the
    #: sampling machinery, so results stay bit-identical.
    sampling: Optional[SamplingConfig] = None

    def with_invariants(self, level: InvariantLevel) -> "SimConfig":
        """Return a copy of this config with invariant checking ``level``."""
        return replace(self, invariants=level)

    def with_event_driven(self, enabled: bool) -> "SimConfig":
        """Return a copy with the core's skip-ahead fast path toggled."""
        return replace(self, event_driven=enabled)

    def with_sampling(
        self,
        period: int = 50_000,
        window: int = 1_000,
        warmup: int = 500,
        strata: int = 1,
        warm_confidence: bool = False,
    ) -> "SimConfig":
        """Return a copy that runs under systematic sampling.

        ``strata`` splits each period's measured window across that many
        sub-strata (same detailed fraction, finer phase coverage);
        ``warm_confidence`` enables timing-aware (detuned) warming of
        predictor confidence counters.  The defaults reproduce the
        classic single-grid, full-rate warming bit-identically.
        """
        return replace(
            self,
            sampling=SamplingConfig(
                period=period,
                window=window,
                warmup=warmup,
                strata=strata,
                warm_confidence=warm_confidence,
            ),
        )

    def with_prefetcher(self, prefetch: PrefetchConfig) -> "SimConfig":
        """Return a copy of this config using ``prefetch``."""
        return replace(self, prefetch=prefetch)

    def with_sharing(self, sharing: BufferSharing) -> "SimConfig":
        """Return a copy using ``sharing`` for stream-buffer entries."""
        buffers = replace(self.prefetch.stream_buffers, sharing=sharing)
        return replace(
            self, prefetch=replace(self.prefetch, stream_buffers=buffers)
        )

    def with_l1(self, size_bytes: int, associativity: int) -> "SimConfig":
        """Return a copy with a resized L1 data cache (Figure 10 sweep)."""
        l1 = replace(
            self.l1_data, size_bytes=size_bytes, associativity=associativity
        )
        return replace(self, l1_data=l1)

    def with_disambiguation(self, policy: DisambiguationPolicy) -> "SimConfig":
        """Return a copy with a different load/store policy (Figure 11)."""
        core = replace(self.core, disambiguation=policy)
        return replace(self, core=core)
