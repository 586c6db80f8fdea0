"""``burg`` stand-in: a BURS tree-parser generator.

The real program repeatedly walks grammar trees while emitting tables for
an instruction selector.  The stand-in walks a static binary tree along
paths drawn from a small, skewed set of recurring rules: the same
node-to-node transitions recur across walks (first-order Markov catches
them), but the address deltas are tree-shaped, not strides.  A secondary
phase scans the rule table with unit stride, giving the stride component
the paper's mixed results suggest.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.trace.record import InstrKind, TraceRecord
from repro.workloads.base import Emitter, HeapModel, PcAllocator, WorkloadGenerator

_NODE_BYTES = 32


class BurgWorkload(WorkloadGenerator):
    """Recurring tree walks plus table scans."""

    name = "burg"
    description = (
        "Generates a fast tree parser using BURS technology: repeated "
        "grammar-tree walks with recurring paths and table emission."
    )

    #: Nodes in the grammar tree.
    tree_nodes = 6000
    #: Recurring root-to-leaf rules the matcher walks.
    num_rules = 300
    #: Longest rule path, in tree levels.
    walk_depth = 12
    table_base = 0x4000_0000
    table_entries = 512

    def _build_tree(self, heap: HeapModel) -> List[int]:
        """Heap addresses for a binary tree, allocated in DFS order.

        burg builds its trees while reading the grammar, so children are
        allocated close to their parents.  Depth-first allocation keeps
        most parent-to-child deltas small enough for the 16-bit
        differential Markov entries (the deepest hops still overflow,
        mirroring the tail of Figure 4).
        """
        addresses = [0] * self.tree_nodes
        stack = [0]
        while stack:
            node = stack.pop()
            addresses[node] = heap.alloc(_NODE_BYTES)
            right = 2 * node + 2
            left = 2 * node + 1
            if right < self.tree_nodes:
                stack.append(right)
            if left < self.tree_nodes:
                stack.append(left)
        return addresses

    def _make_rules(self, rng) -> List[List[int]]:
        """Each rule is a fixed root-to-leaf path (a list of node ids)."""
        rules = []
        for __ in range(self.num_rules):
            path = [0]
            node = 0
            for __ in range(self.walk_depth):
                child = 2 * node + (1 if rng.random() < 0.5 else 2)
                if child >= self.tree_nodes:
                    break
                path.append(child)
                node = child
            rules.append(path)
        return rules

    def generate(self) -> Iterator[TraceRecord]:
        rng = self._rng()
        heap = HeapModel()
        nodes = self._build_tree(heap)
        rules = self._make_rules(rng)
        pcs = PcAllocator()
        pc_walk = pcs.site()
        pc_op = pcs.site()
        pc_dir = pcs.site()
        pc_scan = pcs.site()
        pc_cost = pcs.site()
        pc_emit = pcs.site()
        pc_sbranch = pcs.site()
        em = Emitter()
        # Skewed rule popularity: a few rules dominate, as grammar
        # non-terminals do, so most transitions repeat.
        weights = [1.0 / (i + 1) for i in range(len(rules))]
        total = sum(weights)
        cumulative = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            cumulative.append(acc)

        def pick_rule() -> List[int]:
            roll = rng.random()
            for index, edge in enumerate(cumulative):
                if roll <= edge:
                    return rules[index]
            return rules[-1]

        while True:
            # Phase 1: a burst of tree walks (the matcher).
            for __ in range(12):
                path = pick_rule()
                previous = -1
                for depth, node_id in enumerate(path):
                    chase = em.index
                    yield em.rec(
                        InstrKind.LOAD, pc_walk, nodes[node_id], after=previous
                    )
                    previous = chase
                    yield em.rec(InstrKind.IALU, pc_op, after=chase)
                    taken = depth != len(path) - 1
                    yield em.rec(InstrKind.BRANCH, pc_dir, taken=taken, after=chase)
            # Phase 2: emit costs into the rule table (unit stride).
            start = rng.randrange(0, 64) * 8
            for i in range(48):
                address = self.table_base + (start + i * 8) % (
                    self.table_entries * 8
                )
                load = em.index
                yield em.rec(InstrKind.LOAD, pc_scan, address)
                yield em.rec(InstrKind.IALU, pc_cost, after=load)
                yield em.rec(InstrKind.STORE, pc_emit, address, after=load)
                yield em.rec(InstrKind.BRANCH, pc_sbranch, taken=i != 47)
