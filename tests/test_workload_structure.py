"""Structural tests: each stand-in exhibits its paper-documented mechanism."""

import itertools
from collections import Counter

from repro.trace.record import InstrKind
from repro.workloads import get_workload
from repro.workloads.base import HEAP_BASE
from repro.workloads.burg import BurgWorkload
from repro.workloads.deltablue import DeltaBlueWorkload
from repro.workloads.health import HealthWorkload
from repro.workloads.sis import SisWorkload
from repro.workloads.turb3d import Turb3dWorkload


def _loads(name, count, **kwargs):
    stream = get_workload(name, **kwargs)
    return [r for r in itertools.islice(stream, count) if r.is_load]


class TestHealthStructure:
    def test_chase_addresses_repeat_across_sweeps(self):
        """The lists are static apart from rare relinks, so the second
        sweep's chase sequence mostly matches the first — the property
        the Markov predictor lives on.  The chase PC is identified
        structurally: it is the dependence-chained heap load."""
        workload = HealthWorkload(seed=3)
        sweep_len = workload.num_lists * workload.nodes_per_list
        loads = []
        examined = 0
        for record in workload.generate():
            examined += 1
            assert examined < 100 * sweep_len, "chase loads not found"
            if record.is_load and record.dep1 > 0 and record.addr % 64 == 0:
                loads.append(record.addr)
            if len(loads) >= 2 * sweep_len:
                break
        first, second = loads[:sweep_len], loads[sweep_len:2 * sweep_len]
        matches = sum(1 for a, b in zip(first, second) if a == b)
        assert matches / sweep_len > 0.8

    def test_working_set_exceeds_l1(self):
        workload = HealthWorkload()
        footprint = workload.num_lists * workload.nodes_per_list * 64
        assert footprint > 32 * 1024

    def test_chase_deltas_fit_markov_entries(self):
        from repro.utils import fits_signed

        loads = _loads("health", 20_000)
        chase = [r.addr for r in loads if r.dep1 > 0 and r.addr % 64 == 0]
        in_range = sum(
            1 for a, b in zip(chase, chase[1:]) if fits_signed(b - a, 16)
        )
        assert in_range / max(1, len(chase) - 1) > 0.9


class TestBurgStructure:
    def test_walks_follow_recurring_paths(self):
        """The rule set is finite, so entire walk sequences recur.

        Every walk starts at the tree root, so the root address splits
        the chase-load stream into individual walks.
        """
        workload = BurgWorkload(seed=2)
        pc_walk = 0x10000
        root = None
        walks = []
        current = []
        for record in itertools.islice(workload.generate(), 40_000):
            if not (record.is_load and record.pc == pc_walk):
                continue
            if root is None:
                root = record.addr
            if record.addr == root and current:
                walks.append(tuple(current))
                current = []
            current.append(record.addr)
        counts = Counter(walks)
        assert counts and counts.most_common(1)[0][1] >= 2

    def test_tree_nodes_allocated_depth_first(self):
        workload = BurgWorkload()
        from repro.workloads.base import HeapModel

        addresses = workload._build_tree(HeapModel())
        # DFS order: the left child of the root is adjacent to the root.
        assert addresses[1] == addresses[0] + 32


class TestDeltaBlueStructure:
    def test_arena_recycles_addresses(self):
        """Stores revisit arena addresses that are still live.

        At the fixed shape the 160 KiB arena first wraps near record
        953,000, far past these 200,000 records, so every repeat here
        is an execute-phase store into a constraint still on its chain.
        ``tests/test_workloads.py::TestHeapModel::test_arena_wraps``
        covers the wrap itself.
        """
        workload = DeltaBlueWorkload(seed=1)
        arena = range(HEAP_BASE, HEAP_BASE + workload.arena_bytes)
        seen_before = set()
        reused = 0
        for record in itertools.islice(workload.generate(), 200_000):
            if not record.is_store:
                continue
            if record.addr in seen_before and record.addr in arena:
                reused += 1
            seen_before.add(record.addr)
        assert reused > 0

    def test_plan_then_execute_revisits_chain(self):
        workload = DeltaBlueWorkload(seed=1)
        plan_pc = None
        exec_pc = None
        plan_addrs = []
        exec_addrs = []
        for record in itertools.islice(workload.generate(), 3000):
            if not record.is_load:
                continue
            if plan_pc is None and record.dep1 > 3:
                plan_pc = record.pc
            if record.pc == plan_pc:
                plan_addrs.append(record.addr)
        assert len(plan_addrs) > 10


class TestSisStructure:
    def test_more_scan_streams_than_buffers(self):
        workload = SisWorkload()
        assert workload.num_tables > 8

    def test_scan_addresses_advance_monotonically_per_table(self):
        loads = _loads("sis", 6000)
        per_pc = {}
        for record in loads:
            per_pc.setdefault(record.pc, []).append(record.addr)
        scan_streams = [
            addrs for addrs in per_pc.values()
            if len(addrs) > 10 and addrs[0] >= 0x6000_0000
        ]
        assert scan_streams
        for addrs in scan_streams:
            diffs = [b - a for a, b in zip(addrs, addrs[1:]) if b != a]
            forward = sum(1 for d in diffs if d > 0)
            assert forward / max(1, len(diffs)) > 0.9


class TestTurb3dStructure:
    def test_three_distinct_strides(self):
        """x, y, and z sweeps stride by element, row, and plane."""
        workload = Turb3dWorkload()
        strides = set()
        last_by_pc = {}
        for record in itertools.islice(workload.generate(), 120_000):
            if not record.is_load:
                continue
            previous = last_by_pc.get(record.pc)
            if previous is not None:
                delta = record.addr - previous
                if delta > 0:
                    strides.add(delta)
            last_by_pc[record.pc] = record.addr
        assert 8 in strides  # x: element
        assert workload.nx * 8 in strides  # y: row
        assert workload.nx * workload.ny * 8 in strides  # z: plane

    def test_fp_heavy_mix(self):
        counts = Counter(
            r.kind for r in itertools.islice(get_workload("turb3d"), 10_000)
        )
        fp = counts[InstrKind.FADD] + counts[InstrKind.FMUL]
        assert fp / 10_000 > 0.3
