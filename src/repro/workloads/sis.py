"""``sis`` stand-in: synthesis of synchronous/asynchronous circuits.

SIS is the stream-thrashing stress case of the paper: a very large
program with "a good deal of pointer arithmetic" and tight, heavily
software-pipelined inner loops.  The stand-in interleaves *many more
concurrent streams than there are stream buffers*:

- a rotating set of unit-stride truth-table scans (each its own load PC
  and array) — individually predictable, collectively far more streams
  than 8 buffers can hold, so naive allocation reallocates buffers
  before their prefetches are used;
- fanin-list pointer chases over a large gate network whose traversal
  order varies, producing misses that train the Markov table but often
  go stale.

Under two-miss allocation almost every one of these loads qualifies, so
buffers thrash and the L1-L2 bus fills with never-used prefetches
(the paper's Figure 9 shows ~4x bus traffic).  Confidence allocation
plus priority scheduling keeps buffers pinned to the streams that
actually deliver hits.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.trace.record import InstrKind, TraceRecord
from repro.workloads.base import Emitter, HeapModel, PcAllocator, WorkloadGenerator

_GATE_BYTES = 40


class SisWorkload(WorkloadGenerator):
    """Many interleaved short streams: the stream-thrashing stressor."""

    name = "sis"
    description = (
        "Synthesis of synchronous and asynchronous circuits: state "
        "minimization over a large gate network; many concurrent streams."
    )

    #: Cube tables the pipelined phase scans in rotation.
    num_tables = 12
    #: Bytes per cube table.
    table_bytes = 8 * 1024
    #: Gates in the network.
    num_gates = 2400
    #: Fanin pointers per gate.
    fanin = 4
    table_base = 0x6000_0000

    def _build_network(self, heap: HeapModel, rng) -> List[List[int]]:
        """Gates with small fanin lists pointing at other gates."""
        gates = [heap.alloc(_GATE_BYTES) for _ in range(self.num_gates)]
        network = []
        for index in range(self.num_gates):
            # Fanins cluster near the gate (netlists are mostly local),
            # keeping deltas small but unordered.
            fanins = []
            for __ in range(self.fanin):
                offset = rng.randrange(-64, 65)
                fanins.append(gates[(index + offset) % self.num_gates])
            network.append(fanins)
        self._gates = gates
        return network

    def generate(self) -> Iterator[TraceRecord]:
        rng = self._rng()
        heap = HeapModel()
        network = self._build_network(heap, rng)
        pcs = PcAllocator()
        scan_pcs = pcs.sites(self.num_tables)  # one load PC per table scan
        pc_scan_alu = pcs.site()
        pc_scan_alu2 = pcs.site()
        pc_scan_alu3 = pcs.site()
        pc_scan_br = pcs.site()
        pc_gate = pcs.site()
        pc_fanin = pcs.site()
        pc_eval = pcs.site()
        pc_eval2 = pcs.site()
        pc_eval3 = pcs.site()
        pc_gatebr = pcs.site()
        pc_update = pcs.site()
        em = Emitter()
        table_cursors = [i * 128 for i in range(self.num_tables)]
        gate_cursor = 0
        burst = 8  # cube-table reads per visit (software-pipelined loop)
        while True:
            # Software-pipelined phase: visit every table scan in rotation
            # -- more concurrent streams than the 8 stream buffers can
            # follow, so naive allocation keeps stealing buffers from
            # streams that were about to produce hits.
            for table in range(self.num_tables):
                base = self.table_base + table * self.table_bytes
                cursor = table_cursors[table]
                for i in range(burst):
                    address = base + (cursor % self.table_bytes)
                    cursor += 16
                    load = em.index
                    yield em.rec(InstrKind.LOAD, scan_pcs[table], address)
                    cube = em.index
                    yield em.rec(InstrKind.IALU, pc_scan_alu, after=load)
                    yield em.rec(InstrKind.IALU, pc_scan_alu2, after=cube)
                    yield em.rec(InstrKind.IALU, pc_scan_alu3)
                    yield em.rec(InstrKind.BRANCH, pc_scan_br, taken=i != burst - 1)
                table_cursors[table] = cursor
            # Network phase: walk fanin lists of a run of gates.  Half the
            # visits traverse a gate's fanins in a scrambled order, so the
            # transitions are right often enough to slip past a two-miss
            # filter but wrong often enough to keep accuracy confidence at
            # zero -- the allocations that thrash the buffers.
            for __ in range(8):
                gate_index = gate_cursor % self.num_gates
                gate_cursor += 1 + rng.randrange(3)
                gate_addr = self._gates[gate_index]
                gate_load = em.index
                yield em.rec(InstrKind.LOAD, pc_gate, gate_addr)
                previous = gate_load
                fanins = list(network[gate_index])
                if rng.random() < 0.25:
                    rng.shuffle(fanins)
                for fanin_addr in fanins:
                    fanin_load = em.index
                    yield em.rec(
                        InstrKind.LOAD, pc_fanin, fanin_addr, after=previous
                    )
                    previous = fanin_load
                    yield em.rec(InstrKind.IALU, pc_eval, after=fanin_load)
                    yield em.rec(InstrKind.IALU, pc_eval2)
                    yield em.rec(InstrKind.IALU, pc_eval3)
                yield em.rec(
                    InstrKind.BRANCH,
                    pc_gatebr,
                    taken=rng.random() < 0.7,
                    after=previous,
                )
                yield em.rec(InstrKind.STORE, pc_update, gate_addr + 16)
