"""Composable synthetic workloads.

The six benchmark stand-ins are hand-built mixtures of a few primitive
access patterns.  This module exposes those primitives as composable
*phases*, so downstream users can construct custom workloads with known
properties when studying a prefetcher::

    from repro.workloads.synthetic import (
        PointerChase, RandomAccess, StrideSweep, SyntheticWorkload,
    )

    workload = SyntheticWorkload(
        phases=[
            PointerChase(nodes=512, work_per_node=6),
            StrideSweep(elements=256, stride=32),
            RandomAccess(touches=32, region_bytes=1 << 20),
        ],
        seed=7,
    )
    result = simulate(psb_config(), workload)

Each phase emits one bounded burst per round; the workload cycles
through its phases forever.  All phases are deterministic given the
workload seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence

from repro.trace.record import InstrKind, TraceRecord
from repro.workloads.base import Emitter, HeapModel, PcAllocator, WorkloadGenerator


@dataclass(frozen=True)
class PointerChase:
    """A serial linked-list walk: Markov-predictable, stride-hostile.

    ``nodes`` are allocated together and traversed in a shuffled (but
    fixed) order; ``churn`` is the per-visit probability of swapping two
    nodes, which ages the Markov transitions.
    """

    nodes: int = 256
    node_bytes: int = 64
    work_per_node: int = 4
    store_chance: float = 0.2
    churn: float = 0.0

    def _build(self, context: "_PhaseContext") -> dict:
        addresses = [
            context.heap.alloc(self.node_bytes) for __ in range(self.nodes)
        ]
        context.rng.shuffle(addresses)
        return {
            "nodes": addresses,
            "pc_chase": context.pcs.site(),
            "pc_work": context.pcs.sites(max(1, self.work_per_node)),
            "pc_store": context.pcs.site(),
            "pc_branch": context.pcs.site(),
        }

    def _burst(self, context: "_PhaseContext", state: dict) -> Iterator[TraceRecord]:
        em = context.emitter
        rng = context.rng
        nodes: List[int] = state["nodes"]
        previous = -1
        for position, node in enumerate(nodes):
            chase = em.index
            yield em.rec(InstrKind.LOAD, state["pc_chase"], node, after=previous)
            previous = chase
            for pc in state["pc_work"][: self.work_per_node]:
                yield em.rec(InstrKind.IALU, pc, after=chase)
            if rng.random() < self.store_chance:
                yield em.rec(
                    InstrKind.STORE, state["pc_store"], node + 8, after=chase
                )
            yield em.rec(
                InstrKind.BRANCH,
                state["pc_branch"],
                taken=position != len(nodes) - 1,
                after=chase,
            )
            if self.churn and rng.random() < self.churn:
                other = rng.randrange(len(nodes))
                nodes[position], nodes[other] = nodes[other], nodes[position]


@dataclass(frozen=True)
class StrideSweep:
    """A constant-stride sweep: the pattern stride prefetchers own."""

    elements: int = 128
    stride: int = 32
    element_bytes: int = 8
    work_per_element: int = 3
    write_back: bool = False

    def _build(self, context: "_PhaseContext") -> dict:
        region = self.elements * max(self.stride, self.element_bytes) * 4
        return {
            "base": context.heap.alloc(region),
            "cursor": 0,
            "region": region,
            "pc_load": context.pcs.site(),
            "pc_work": context.pcs.sites(max(1, self.work_per_element)),
            "pc_store": context.pcs.site(),
            "pc_branch": context.pcs.site(),
        }

    def _burst(self, context: "_PhaseContext", state: dict) -> Iterator[TraceRecord]:
        em = context.emitter
        for i in range(self.elements):
            address = state["base"] + state["cursor"] % state["region"]
            state["cursor"] += self.stride
            load = em.index
            yield em.rec(InstrKind.LOAD, state["pc_load"], address)
            for pc in state["pc_work"][: self.work_per_element]:
                yield em.rec(InstrKind.FADD, pc, after=load)
            if self.write_back:
                yield em.rec(InstrKind.STORE, state["pc_store"], address, after=load)
            yield em.rec(
                InstrKind.BRANCH,
                state["pc_branch"],
                taken=i != self.elements - 1,
            )


@dataclass(frozen=True)
class RandomAccess:
    """Unpredictable touches over a region: noise no predictor captures."""

    touches: int = 64
    region_bytes: int = 1 << 20
    work_per_touch: int = 2

    def _build(self, context: "_PhaseContext") -> dict:
        return {
            "base": context.heap.alloc(self.region_bytes),
            "pc_load": context.pcs.site(),
            "pc_work": context.pcs.sites(max(1, self.work_per_touch)),
            "pc_branch": context.pcs.site(),
        }

    def _burst(self, context: "_PhaseContext", state: dict) -> Iterator[TraceRecord]:
        em = context.emitter
        rng = context.rng
        for i in range(self.touches):
            address = state["base"] + rng.randrange(0, self.region_bytes) & ~7
            load = em.index
            yield em.rec(InstrKind.LOAD, state["pc_load"], address)
            for pc in state["pc_work"][: self.work_per_touch]:
                yield em.rec(InstrKind.IALU, pc, after=load)
            yield em.rec(
                InstrKind.BRANCH,
                state["pc_branch"],
                taken=i != self.touches - 1,
            )


class _PhaseContext:
    """Shared mutable machinery handed to each phase."""

    def __init__(self, rng, heap: HeapModel, pcs: PcAllocator, emitter: Emitter):
        self.rng = rng
        self.heap = heap
        self.pcs = pcs
        self.emitter = emitter


class SyntheticWorkload(WorkloadGenerator):
    """Cycles through its phases forever, one burst per phase per round."""

    name = "synthetic"
    description = "User-composed mixture of chase/stride/random phases."

    def __init__(
        self,
        phases: Sequence = (),
        seed: int = 1,
    ) -> None:
        super().__init__(seed)
        if not phases:
            raise ValueError("a synthetic workload needs at least one phase")
        self.phases = list(phases)

    def generate(self) -> Iterator[TraceRecord]:
        context = _PhaseContext(
            self._rng(), HeapModel(), PcAllocator(), Emitter()
        )
        states = [phase._build(context) for phase in self.phases]
        while True:
            for phase, state in zip(self.phases, states):
                yield from phase._burst(context, state)
