"""Tests for the benchmark stand-ins (paper's six plus extensions)."""

import inspect
import itertools

import pytest

from repro.errors import ConfigError
from repro.trace.record import InstrKind
from repro.trace.stream import profile
from repro.workloads import (
    PAPER_WORKLOADS,
    WORKLOADS,
    get_workload,
    get_workload_generator,
    workload_names,
)
from repro.workloads.base import Emitter, HeapModel, PcAllocator


class TestHeapModel:
    def test_bump_allocation(self):
        heap = HeapModel(base=0x1000, align=8)
        first = heap.alloc(24)
        second = heap.alloc(24)
        assert first == 0x1000
        assert second == 0x1018
        assert heap.allocated_objects == 2

    def test_arena_wraps(self):
        heap = HeapModel(base=0x1000, arena_bytes=64)
        addresses = [heap.alloc(32) for __ in range(3)]
        assert addresses[2] == addresses[0]

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            HeapModel().alloc(0)


class TestPcAllocator:
    def test_sites_are_distinct_and_spaced(self):
        pcs = PcAllocator(base=0x400)
        sites = pcs.sites(4)
        assert sites == [0x400, 0x404, 0x408, 0x40C]


class TestEmitter:
    def test_dependence_distances(self):
        em = Emitter()
        producer = em.index
        em.rec(InstrKind.LOAD, 0x100, addr=0x1000)
        record = em.rec(InstrKind.IALU, 0x104, after=producer)
        assert record.dep1 == 1
        assert record.dep2 == 0

    def test_two_dependences(self):
        em = Emitter()
        a = em.index
        em.rec(InstrKind.LOAD, 0x100, addr=0x1000)
        b = em.index
        em.rec(InstrKind.LOAD, 0x104, addr=0x2000)
        record = em.rec(InstrKind.FMUL, 0x108, after=a, also_after=b)
        assert record.dep1 == 2
        assert record.dep2 == 1


class TestRegistry:
    def test_registered_workloads(self):
        assert workload_names() == [
            "health", "burg", "deltablue", "gs", "sis", "turb3d",
            "many_streams",
        ]

    def test_paper_workloads_are_the_six(self):
        assert PAPER_WORKLOADS == (
            "health", "burg", "deltablue", "gs", "sis", "turb3d",
        )
        assert set(PAPER_WORKLOADS) < set(workload_names())

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigError) as excinfo:
            get_workload_generator("quake")
        assert excinfo.value.field == "workload"
        assert not excinfo.value.retryable

    def test_seed_is_the_only_constructor_parameter(self):
        for name, cls in WORKLOADS.items():
            assert list(inspect.signature(cls).parameters) == ["seed"], name

    def test_size_keywords_are_refused(self):
        # Sizes are class constants: no keyword reaches a generator, so
        # none can ask for a shape (no lists at all) that never yields.
        with pytest.raises(TypeError):
            get_workload("health", seed=1, num_lists=0)

    def test_descriptions_present(self):
        for name, cls in WORKLOADS.items():
            assert cls.name == name
            assert len(cls.description) > 20


@pytest.mark.parametrize("name", workload_names())
class TestEveryWorkload:
    def test_deterministic_for_same_seed(self, name):
        a = list(itertools.islice(get_workload(name, seed=7), 2000))
        b = list(itertools.islice(get_workload(name, seed=7), 2000))
        assert a == b

    def test_seed_changes_stream(self, name):
        if name == "turb3d":
            pytest.skip("turb3d is a deterministic FP kernel: no seed use")
        a = list(itertools.islice(get_workload(name, seed=1), 2000))
        b = list(itertools.islice(get_workload(name, seed=2), 2000))
        assert a != b

    def test_mix_is_plausible(self, name):
        stats = profile(itertools.islice(get_workload(name), 8000))
        assert 0.10 <= stats["load_fraction"] <= 0.50
        assert 0.01 <= stats["store_fraction"] <= 0.30
        assert 0.03 <= stats["branch_fraction"] <= 0.35

    def test_dependences_point_backwards(self, name):
        for index, record in enumerate(
            itertools.islice(get_workload(name), 5000)
        ):
            assert record.dep1 <= index
            assert record.dep2 <= index

    def test_memory_records_have_addresses(self, name):
        for record in itertools.islice(get_workload(name), 5000):
            if record.is_memory:
                assert record.addr > 0


class TestWorkloadCharacter:
    """Each stand-in must show the access pattern the paper attributes
    to its benchmark (DESIGN.md substitution argument)."""

    @staticmethod
    def _load_stride_fraction(name, count=6000):
        """Fraction of consecutive same-PC loads with a repeated stride."""
        last = {}
        strides = {}
        repeated = 0
        total = 0
        for record in itertools.islice(get_workload(name), count):
            if not record.is_load:
                continue
            if record.pc in last:
                stride = record.addr - last[record.pc]
                if strides.get(record.pc) == stride:
                    repeated += 1
                total += 1
                strides[record.pc] = stride
            last[record.pc] = record.addr
        return repeated / total if total else 0.0

    def test_turb3d_is_stride_dominated(self):
        assert self._load_stride_fraction("turb3d") > 0.8

    def test_health_is_not_stride_dominated(self):
        assert self._load_stride_fraction("health") < 0.4

    def test_health_chase_is_dependent(self):
        chase_deps = 0
        chase_loads = 0
        for record in itertools.islice(get_workload("health"), 4000):
            if record.is_load and record.dep1 > 0:
                chase_deps += 1
            if record.is_load:
                chase_loads += 1
        assert chase_deps / chase_loads > 0.5

    def test_sis_has_many_concurrent_load_pcs(self):
        pcs = set()
        for record in itertools.islice(get_workload("sis"), 4000):
            if record.is_load:
                pcs.add(record.pc)
        assert len(pcs) > 12  # more streams than the 8 stream buffers

    def test_deltablue_reuses_arena_addresses(self):
        generator = get_workload_generator("deltablue")
        seen = set()
        for record in itertools.islice(generator.generate(), 60000):
            if record.is_store:
                seen.add(record.addr)
        assert generator.arena_bytes >= len(seen) * 4  # bounded arena
