"""Shared machinery for synthetic workload generators.

Every generator produces an infinite, deterministic stream of
:class:`~repro.trace.record.TraceRecord` given a seed.  Two pieces of
shared state make the streams realistic:

- :class:`HeapModel`, a bump allocator.  Objects allocated close in time
  sit close in memory, so the pointer-chase deltas between consecutive
  misses usually fit in the differential Markov table's 16-bit entries —
  the property Figure 4 measures on the real programs.
- :class:`PcAllocator`, which hands each *static* instruction site a
  stable PC, so PC-indexed predictors see the same load sites across
  iterations.

Dependences are expressed as dynamic-instruction distances; generators
track their own emission count to compute them (a pointer chase is a
chain of loads each depending on the previous one).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Iterator, List

from repro.trace.record import InstrKind, TraceRecord

#: Memory-map constants shared by all workloads.
HEAP_BASE = 0x1000_0000
GLOBAL_BASE = 0x0100_0000
STACK_BASE = 0x7FFF_0000
CODE_BASE = 0x0001_0000


class HeapModel:
    """A bump allocator with optional arena recycling.

    ``arena_bytes`` bounds the region; when exhausted the allocator wraps
    to the base, modelling programs (like deltablue) that churn through
    short-lived objects and let the allocator reuse memory.
    """

    def __init__(
        self,
        base: int = HEAP_BASE,
        align: int = 8,
        arena_bytes: int = 0,
    ) -> None:
        self.base = base
        self.align = align
        self.arena_bytes = arena_bytes
        self._next = base
        self.allocated_objects = 0

    def alloc(self, size: int) -> int:
        """Allocate ``size`` bytes; return the object's base address."""
        if size <= 0:
            raise ValueError("allocation size must be positive")
        address = self._next
        aligned = (size + self.align - 1) & ~(self.align - 1)
        self._next += aligned
        if self.arena_bytes and self._next >= self.base + self.arena_bytes:
            self._next = self.base
        self.allocated_objects += 1
        return address


class PcAllocator:
    """Stable program-counter values for static instruction sites."""

    def __init__(self, base: int = CODE_BASE) -> None:
        self._next = base

    def site(self) -> int:
        """A fresh PC, 4 bytes past the previous one."""
        pc = self._next
        self._next += 4
        return pc

    def sites(self, count: int) -> List[int]:
        return [self.site() for _ in range(count)]


class WorkloadGenerator(ABC):
    """Base class for the six benchmark stand-ins.

    Subclasses define :meth:`generate`, an infinite record stream; the
    simulator caps it with ``max_instructions``.  A registered
    generator's only input is its ``seed``: its shape (list counts,
    region sizes, churn rates) is class-level constants.
    """

    #: Short name used by the registry and benchmark harnesses.
    name: str = "workload"
    #: One-line description mirroring Table 1.
    description: str = ""

    def __init__(self, seed: int = 1) -> None:
        self.seed = seed

    @abstractmethod
    def generate(self) -> Iterator[TraceRecord]:
        """Yield an unbounded deterministic instruction stream."""

    def __iter__(self) -> Iterator[TraceRecord]:
        return self.generate()

    def _rng(self) -> random.Random:
        return random.Random(self.seed)


class Emitter:
    """Builds records while tracking dynamic-instruction indices.

    Dependences in :class:`~repro.trace.record.TraceRecord` are distances
    back in the dynamic stream; the emitter converts absolute producer
    indices into those distances.  ``index`` is the index the *next*
    emitted record will receive::

        chase = em.index
        yield em.rec(InstrKind.LOAD, pc, addr, after=previous_chase)
    """

    def __init__(self) -> None:
        self.index = 0

    def rec(
        self,
        kind: InstrKind,
        pc: int,
        addr: int = 0,
        taken: bool = False,
        after: int = -1,
        also_after: int = -1,
    ) -> TraceRecord:
        """Create the next record; ``after`` are producer indices (or -1)."""
        dep1 = self.index - after if after >= 0 else 0
        dep2 = self.index - also_after if also_after >= 0 else 0
        self.index += 1
        return TraceRecord(kind, pc, addr, taken, dep1, dep2)
