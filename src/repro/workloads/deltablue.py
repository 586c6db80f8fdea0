"""``deltablue`` stand-in: an incremental constraint solver.

DeltaBlue is C++ with "an abundance of short-lived heap objects".  The
solver repeatedly *plans* (walks chains of constraint objects by
pointer), *executes* the plan (walks the same chain again — immediate
re-reference of the just-missed addresses), and *edits* the graph
(allocates replacement constraints from a recycling arena, with bursts of
initializing stores).  The paper reports deltablue as one of the two
largest consumers of L1-L2 bandwidth, the biggest winner from priority
scheduling, and the program whose prefetch accuracy doubles under PSB.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.trace.record import InstrKind, TraceRecord
from repro.workloads.base import Emitter, HeapModel, PcAllocator, WorkloadGenerator

_CONSTRAINT_BYTES = 48


class DeltaBlueWorkload(WorkloadGenerator):
    """Interleaved constraint-chain walks with heap churn."""

    name = "deltablue"
    description = (
        "Incremental dataflow constraint solver (C++): pointer-chased "
        "constraint chains and an abundance of short-lived heap objects."
    )

    #: Constraint chains in the graph.
    num_chains = 16
    #: Constraints per chain.
    chain_length = 80
    #: The recycling arena replacement constraints come from.
    arena_bytes = 160 * 1024
    #: Per-constraint chance that an edit replaces it.
    churn_chance = 0.03

    def _build_chains(self, heap: HeapModel, rng) -> List[List[int]]:
        """Constraint chains whose nodes were allocated consecutively but
        got lightly scrambled by graph edits before we start observing."""
        chains: List[List[int]] = []
        for __ in range(self.num_chains):
            chain = [heap.alloc(_CONSTRAINT_BYTES) for _ in range(self.chain_length)]
            # A few historical edits: swap some neighbours.
            for __ in range(self.chain_length // 4):
                i = rng.randrange(len(chain) - 1)
                j = rng.randrange(len(chain) - 1)
                chain[i], chain[j] = chain[j], chain[i]
            chains.append(chain)
        return chains

    def generate(self) -> Iterator[TraceRecord]:
        rng = self._rng()
        heap = HeapModel(arena_bytes=self.arena_bytes)
        chains = self._build_chains(heap, rng)
        pcs = PcAllocator()
        pc_strength = pcs.site()  # read constraint strength
        pc_cmp = pcs.site()
        pc_planbr = pcs.site()
        pc_exec = pcs.site()  # execution chase load
        pc_write = pcs.site()  # write computed variable
        pc_execbr = pcs.site()
        pc_alloc = pcs.sites(6)  # constructor stores
        pc_link = pcs.site()
        pc_work1 = pcs.site()  # strength comparison arithmetic
        pc_work2 = pcs.site()
        pc_work3 = pcs.site()
        pc_var = pcs.site()  # variable-table scan load
        pc_varw = pcs.site()  # variable-table update store
        pc_var_alu = pcs.site()
        pc_varbr = pcs.site()
        pc_plan = pcs.site()  # plan-walk chase load
        em = Emitter()

        def exec_walk(chain: List[int]) -> Iterator[TraceRecord]:
            """Execute the plan: re-walk the chain, writing results."""
            previous = -1
            for position, node in enumerate(chain):
                chase = em.index
                yield em.rec(InstrKind.LOAD, pc_exec, node, after=previous)
                previous = chase
                yield em.rec(InstrKind.IALU, pc_cmp, after=chase)
                yield em.rec(InstrKind.STORE, pc_write, node + 24, after=chase)
                yield em.rec(
                    InstrKind.BRANCH,
                    pc_execbr,
                    taken=position != len(chain) - 1,
                    after=chase,
                )

        chain_cursor = 0
        var_base = 0x7000_0000
        var_bytes = 64 * 1024
        var_cursor = 0
        while True:
            # Plan phase: walk one chain by pointer, one constraint at a
            # time.
            chain = chains[chain_cursor]
            previous = -1
            for position, node in enumerate(chain):
                chase = em.index
                yield em.rec(InstrKind.LOAD, pc_plan, node, after=previous)
                previous = chase
                yield em.rec(InstrKind.LOAD, pc_strength, node + 8, after=chase)
                yield em.rec(InstrKind.IALU, pc_cmp, after=chase)
                yield em.rec(InstrKind.IALU, pc_work1, after=chase)
                yield em.rec(InstrKind.IALU, pc_work2)
                yield em.rec(InstrKind.IALU, pc_work3)
                yield em.rec(
                    InstrKind.BRANCH,
                    pc_planbr,
                    taken=position != len(chain) - 1,
                    after=chase,
                )
            # Execute the plan: walk the same chain again.
            yield from exec_walk(chain)
            # Refresh a slice of the variable table (unit-stride scan, the
            # part of deltablue a stride prefetcher can help with).
            for i in range(40):
                address = var_base + (var_cursor % var_bytes)
                var_cursor += 32
                load = em.index
                yield em.rec(InstrKind.LOAD, pc_var, address)
                yield em.rec(InstrKind.IALU, pc_var_alu, after=load)
                yield em.rec(InstrKind.STORE, pc_varw, address, after=load)
                yield em.rec(InstrKind.BRANCH, pc_varbr, taken=i != 39)
            # Graph edit: retire constraints of the walked chain and
            # construct replacements from the recycling arena (bursts of
            # initializing stores).
            for position in range(len(chain)):
                if rng.random() < self.churn_chance:
                    fresh = heap.alloc(_CONSTRAINT_BYTES)
                    for k, pc_store in enumerate(pc_alloc):
                        yield em.rec(InstrKind.STORE, pc_store, fresh + k * 8)
                    yield em.rec(InstrKind.IALU, pc_link)
                    chain[position] = fresh
            chain_cursor = (chain_cursor + 1) % len(chains)
