"""Golden-model differential validation.

A deliberately tiny, *obviously correct* functional model of the demand
side of the memory hierarchy: a set-associative LRU tag store with
immediate fills and no timing at all — no MSHRs, no buses, no
pipelining, no prefetching.  Replaying a run's records (any iterable
of :class:`~repro.trace.record.TraceRecord`) through it yields
reference counts the timing simulator must reconcile with.

Because the timed model's miss accounting is timing-*dependent* (merges
into in-flight MSHR entries count as misses; fills land out of order and
perturb LRU), the two models are compared through **conservation laws**
that hold exactly, plus one soft miss-rate tolerance:

- instruction, load, store, and branch counts match exactly;
- every memory instruction either accessed the hierarchy or was
  store-forwarded: ``demand_accesses + forwarded_loads == golden
  accesses``, exactly;
- the timed model's miss count is bounded below by the number of
  distinct blocks the trace touches (compulsory misses), exactly;
- ``prefetches_used <= prefetches_issued``, exactly;
- the *primary* L1 miss rate — demand misses minus MSHR merges, i.e.
  counting each block fetch once the way the functional model does —
  agrees with the golden miss rate within :data:`MISS_RATE_TOLERANCE`
  (5 percentage points).  Without prefetching the two match to four
  decimal places on every registered workload; the slack only covers
  prefetch-perturbed LRU ordering.

All comparisons require the timed run to have been collected with
``warmup_instructions == 0``: a warm-up reset discards events the golden
model still counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, List, Optional

from repro.config import SimConfig
from repro.errors import IntegrityError
from repro.sim.results import SimulationResult
from repro.trace.record import InstrKind, TraceRecord

#: Allowed absolute difference between the timed and golden miss rates.
MISS_RATE_TOLERANCE = 0.05


class GoldenCache:
    """Functional set-associative LRU tag store with immediate fills.

    Kept primitive on purpose — each set is a plain list in LRU→MRU
    order — so its correctness is evident by inspection.
    """

    def __init__(self, size_bytes: int, block_size: int, associativity: int) -> None:
        self.block_size = block_size
        self.associativity = associativity
        self.num_sets = max(1, size_bytes // (block_size * associativity))
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]

    def access(self, address: int) -> bool:
        """Touch a block; fill it immediately on a miss.  Returns hit."""
        block = address - (address % self.block_size)
        index = (block // self.block_size) % self.num_sets
        ways = self._sets[index]
        if block in ways:
            ways.remove(block)
            ways.append(block)  # most recently used at the tail
            return True
        ways.append(block)
        if len(ways) > self.associativity:
            ways.pop(0)  # evict the least recently used
        return False


@dataclass
class GoldenStats:
    """Reference counts from one functional replay of a trace."""

    instructions: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    accesses: int = 0
    l1_misses: int = 0
    distinct_blocks: int = 0

    @property
    def l1_miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.l1_misses / self.accesses


def run_golden(
    config: SimConfig,
    trace: Iterable[TraceRecord],
    max_instructions: Optional[int] = None,
) -> GoldenStats:
    """Replay ``trace``'s records through the functional model of ``config``.

    Stops after ``max_instructions`` records when that is given.  The
    loop binds its hot attributes to locals.
    """
    l1 = GoldenCache(
        config.l1_data.size_bytes,
        config.l1_data.block_size,
        config.l1_data.associativity,
    )
    source = iter(trace)
    if max_instructions is not None:
        source = islice(source, max_instructions)
    LOAD = InstrKind.LOAD
    STORE = InstrKind.STORE
    BRANCH = InstrKind.BRANCH
    l1_access = l1.access
    l1_block_size = l1.block_size
    seen_blocks: set = set()
    seen_add = seen_blocks.add
    instructions = loads = stores = branches = 0
    accesses = l1_misses = 0
    for record in source:
        instructions += 1
        kind = record.kind
        if kind is LOAD:
            loads += 1
        elif kind is STORE:
            stores += 1
        else:
            if kind is BRANCH:
                branches += 1
            continue
        accesses += 1
        addr = record.addr
        seen_add(addr - (addr % l1_block_size))
        if not l1_access(addr):
            l1_misses += 1
    return GoldenStats(
        instructions=instructions,
        loads=loads,
        stores=stores,
        branches=branches,
        accesses=accesses,
        l1_misses=l1_misses,
        distinct_blocks=len(seen_blocks),
    )


@dataclass
class GoldenReport:
    """Outcome of diffing a timed result against the golden model."""

    label: str
    timed_miss_rate: float
    golden_miss_rate: float
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def verify(self) -> "GoldenReport":
        """Raise :class:`IntegrityError` when any law was broken."""
        if self.violations:
            raise IntegrityError(
                f"golden-model check failed for {self.label!r}: "
                + "; ".join(self.violations),
                invariant="golden.differential",
                state_dump={
                    "violations": list(self.violations),
                    "timed_miss_rate": self.timed_miss_rate,
                    "golden_miss_rate": self.golden_miss_rate,
                },
            )
        return self

    def summary(self) -> str:
        status = "OK" if self.ok else f"FAILED ({len(self.violations)})"
        return (
            f"golden check [{status}] {self.label}: "
            f"timed missrate={self.timed_miss_rate:.4f} "
            f"golden={self.golden_miss_rate:.4f} "
            f"(tolerance {MISS_RATE_TOLERANCE:.3f})"
        )


def golden_check(
    result: SimulationResult,
    golden: GoldenStats,
    warmup_instructions: int = 0,
) -> GoldenReport:
    """Diff a timed :class:`SimulationResult` against golden counts.

    ``result.extra`` must carry the raw ``demand_accesses`` /
    ``demand_misses`` / ``loads`` / ``stores`` / ``branches`` counters
    (the simulator records them on every run); the exact conservation
    laws need counts, not rates.
    """
    if warmup_instructions:
        raise IntegrityError(
            "golden-model validation requires warmup_instructions == 0: "
            "a warm-up reset discards events the golden model counts",
            invariant="golden.precondition",
        )
    demand_accesses = int(result.extra.get("demand_accesses", -1))
    demand_misses = int(result.extra.get("demand_misses", -1))
    if demand_accesses < 0 or demand_misses < 0:
        raise IntegrityError(
            "timed result carries no raw demand counters; it predates "
            "the integrity layer and cannot be golden-checked",
            invariant="golden.precondition",
        )
    merges = int(result.extra.get("l1_mshr_merges", 0))
    primary_misses = demand_misses - merges
    timed_rate = (
        primary_misses / demand_accesses if demand_accesses else 0.0
    )
    report = GoldenReport(
        label=result.label,
        timed_miss_rate=timed_rate,
        golden_miss_rate=golden.l1_miss_rate,
    )
    flaws = report.violations

    def expect_equal(name: str, timed_value: int, golden_value: int) -> None:
        if timed_value != golden_value:
            flaws.append(
                f"{name}: timed {timed_value} != golden {golden_value}"
            )

    expect_equal("instructions", result.instructions, golden.instructions)
    expect_equal("loads", int(result.extra.get("loads", -1)), golden.loads)
    expect_equal("stores", int(result.extra.get("stores", -1)), golden.stores)
    expect_equal(
        "branches", int(result.extra.get("branches", -1)), golden.branches
    )
    expect_equal(
        "memory accesses (demand + forwarded)",
        demand_accesses + result.forwarded_loads,
        golden.accesses,
    )
    if primary_misses < golden.distinct_blocks:
        flaws.append(
            f"misses below compulsory floor: timed {primary_misses} "
            f"primary misses < {golden.distinct_blocks} distinct blocks "
            "touched"
        )
    if result.prefetches_used > result.prefetches_issued:
        flaws.append(
            f"prefetches_used ({result.prefetches_used}) exceeds "
            f"prefetches_issued ({result.prefetches_issued})"
        )
    if abs(timed_rate - golden.l1_miss_rate) > MISS_RATE_TOLERANCE:
        flaws.append(
            f"miss rate diverged: timed primary {timed_rate:.4f} vs "
            f"golden {golden.l1_miss_rate:.4f} "
            f"(tolerance {MISS_RATE_TOLERANCE:.3f})"
        )
    return report
