"""``health`` stand-in: Olden's hierarchical health-care simulator.

The real program simulates a four-way tree of villages, each holding
linked lists of patients that are repeatedly traversed and occasionally
relinked.  The memory behaviour that matters for the paper:

- long pointer chases through lists whose node order in memory is *not*
  a stride (nodes for one list live near each other, but the traversal
  order within the region is jumbled);
- the structure is mostly static, so the miss stream repeats sweep after
  sweep — exactly what a first-order Markov predictor captures;
- the total working set is several times the 32 KB L1, so each sweep
  misses heavily (the paper reports the highest L1 miss rate of the
  suite).
"""

from __future__ import annotations

from typing import Iterator, List

from repro.trace.record import InstrKind, TraceRecord
from repro.workloads.base import Emitter, HeapModel, PcAllocator, WorkloadGenerator

#: Bytes per patient node: a next pointer, data, and status fields.
_NODE_BYTES = 64


class HealthWorkload(WorkloadGenerator):
    """Linked-list sweeps over a tree of villages (pointer chasing)."""

    name = "health"
    description = (
        "Hierarchical health-care simulator from the Olden suite: "
        "repeated traversal of per-village patient linked lists."
    )

    #: Villages, one patient list each.
    num_lists = 20
    #: Patients per list.
    nodes_per_list = 64
    #: Per-visit chance that a patient moves in its list.
    relink_chance = 0.06

    def _build_lists(self, heap: HeapModel, rng) -> List[List[int]]:
        """Allocate each list's nodes in one segment, traversal shuffled.

        Per-segment allocation keeps chase deltas small (they fit the
        16-bit differential Markov entries); shuffling kills strides.
        """
        lists: List[List[int]] = []
        for __ in range(self.num_lists):
            nodes = [heap.alloc(_NODE_BYTES) for _ in range(self.nodes_per_list)]
            rng.shuffle(nodes)
            lists.append(nodes)
        return lists

    def generate(self) -> Iterator[TraceRecord]:
        rng = self._rng()
        heap = HeapModel()
        lists = self._build_lists(heap, rng)
        pcs = PcAllocator()
        pc_head = pcs.site()  # load list head from village struct
        pcs.sites(2)  # never emitted; allocated so later PCs keep their values
        pc_check = pcs.site()  # compare days
        pc_update = pcs.site()  # store patient->days
        pc_loop = pcs.site()  # list-walk back edge
        pc_village = pcs.site()  # village loop back edge
        pc_work = pcs.sites(10)  # per-patient bookkeeping arithmetic
        village_bases = [0x0100_0000 + i * 256 for i in range(self.num_lists)]
        # The chase and field loads each take the first site of a
        # four-site block; the other three are never emitted.
        pc_chase = pcs.sites(4)[0]  # load patient->next
        pc_data = pcs.sites(4)[0]  # load patient->days

        em = Emitter()
        while True:
            # Villages are processed one at a time: one serial chase.
            for village, nodes in enumerate(lists):
                previous = em.index
                yield em.rec(InstrKind.LOAD, pc_head, village_bases[village])
                for position in range(len(nodes)):
                    node = nodes[position]
                    chase = em.index
                    yield em.rec(InstrKind.LOAD, pc_chase, node, after=previous)
                    previous = chase
                    # Same-block field read depends on the chase load.
                    data = em.index
                    yield em.rec(InstrKind.LOAD, pc_data, node + 8, after=chase)
                    yield em.rec(InstrKind.IALU, pc_check, after=data)
                    # Per-patient bookkeeping the out-of-order core can
                    # overlap with the chase.
                    work = em.index
                    yield em.rec(InstrKind.IALU, pc_work[0], after=data)
                    yield em.rec(InstrKind.IALU, pc_work[1])
                    yield em.rec(InstrKind.IALU, pc_work[2], after=work)
                    yield em.rec(InstrKind.IMUL, pc_work[3])
                    yield em.rec(InstrKind.IALU, pc_work[4])
                    yield em.rec(InstrKind.IALU, pc_work[5])
                    if rng.random() < 0.25:
                        yield em.rec(
                            InstrKind.STORE, pc_update, node + 16, after=data
                        )
                    yield em.rec(
                        InstrKind.BRANCH,
                        pc_loop,
                        taken=position != len(nodes) - 1,
                        after=data,
                    )
                    if (
                        position < len(nodes) - 1
                        and rng.random() < self.relink_chance
                    ):
                        # A patient moves: swap two nodes in traversal
                        # order, perturbing the Markov transitions.
                        other = rng.randrange(len(nodes))
                        me = position + 1
                        nodes[me], nodes[other] = nodes[other], nodes[me]
                yield em.rec(InstrKind.BRANCH, pc_village, taken=True)
