"""Unit tests for the stream-buffer controller (Section 4.1)."""

import pytest

from repro.config import (
    AllocationPolicy,
    PrefetchConfig,
    PrefetcherKind,
    SchedulingPolicy,
    SimConfig,
    StreamBufferConfig,
)
from repro.memory.hierarchy import MemoryHierarchy
from repro.predictors.sfm import StrideFilteredMarkovPredictor
from repro.predictors.stride import TwoDeltaStrideTable
from repro.streambuf.buffer import EntryState
from repro.streambuf.controller import (
    SequentialPredictor,
    StreamBufferController,
    build_prefetcher,
)

BLOCK = 32


def _controller(allocation=AllocationPolicy.ALWAYS, predictor=None):
    config = StreamBufferConfig(
        allocation=allocation, scheduling=SchedulingPolicy.ROUND_ROBIN
    )
    predictor = predictor or SequentialPredictor(BLOCK)
    controller = StreamBufferController(config, predictor, BLOCK)
    hierarchy = MemoryHierarchy(SimConfig())
    controller.attach(hierarchy)
    return controller, hierarchy


def _warm_stride(predictor, pc=0x100, count=6, stride=BLOCK):
    for i in range(count):
        predictor.train(pc, i * stride)


class TestAllocation:
    def test_miss_allocates_buffer(self):
        controller, __ = _controller()
        controller.on_l1_miss(0x100, 0x8000, cycle=0, sb_hit=False)
        assert controller.allocations == 1
        assert controller.buffers[0].allocated

    def test_sb_hit_does_not_allocate(self):
        controller, __ = _controller()
        controller.on_l1_miss(0x100, 0x8000, cycle=0, sb_hit=True)
        assert controller.allocations == 0

    def test_two_miss_filter_gates_allocation(self):
        predictor = TwoDeltaStrideTable()
        controller, __ = _controller(AllocationPolicy.TWO_MISS, predictor)
        controller.on_l1_miss(0x100, 0 * BLOCK, 0, sb_hit=False)
        controller.on_l1_miss(0x100, 1 * BLOCK, 10, sb_hit=False)
        assert controller.allocations == 0
        controller.on_l1_miss(0x100, 2 * BLOCK, 20, sb_hit=False)
        assert controller.allocations == 1

    def test_priority_copied_from_confidence(self):
        predictor = StrideFilteredMarkovPredictor()
        controller, __ = _controller(AllocationPolicy.CONFIDENCE, predictor)
        _warm_stride(predictor)
        controller.on_l1_miss(0x100, 6 * BLOCK, 0, sb_hit=False)
        assert controller.allocations == 1
        assert int(controller.buffers[0].priority) == predictor.confidence_for(0x100)

    def test_aging_decrements_priorities(self):
        controller, __ = _controller()
        controller.on_l1_miss(0x100, 0x8000, 0, sb_hit=False)
        controller.buffers[0].priority.set(5)
        for i in range(controller.config.priority_age_period):
            controller.on_l1_miss(0x200 + i, 0x100000 + i * 4096, i, sb_hit=False)
        assert int(controller.buffers[0].priority) < 5


class TestPredictionAndPrefetch:
    def test_tick_predicts_and_prefetches(self):
        controller, hierarchy = _controller()
        controller.on_l1_miss(0x100, 0x8000, 0, sb_hit=False)
        controller.tick(1)
        buffer = controller.buffers[0]
        states = [entry.state for entry in buffer.entries]
        assert EntryState.IN_FLIGHT in states or EntryState.PREDICTED in states
        assert controller.predictions_made >= 1

    def test_one_prediction_per_cycle(self):
        controller, __ = _controller()
        controller.on_l1_miss(0x100, 0x8000, 0, sb_hit=False)
        controller.on_l1_miss(0x200, 0x20000, 0, sb_hit=False)
        controller.tick(1)
        assert controller.predictions_made == 1

    def test_prefetch_blocked_when_bus_busy(self):
        controller, hierarchy = _controller()
        controller.on_l1_miss(0x100, 0x8000, 0, sb_hit=False)
        hierarchy.l1_l2_bus.acquire(1, 64)  # bus busy at cycle 1
        controller.tick(1)
        assert controller.prefetches_issued == 0

    def test_overlapping_streams_forbidden(self):
        """A prediction already held by any buffer is dropped, but the
        stream's speculative history still advances (Section 4.1)."""
        controller, __ = _controller()
        controller.on_l1_miss(0x100, 0x8000, 0, sb_hit=False)
        controller.on_l1_miss(0x200, 0x8000 + BLOCK, 0, sb_hit=False)
        for cycle in range(1, 12):
            controller.tick(cycle)
        assert controller.duplicate_predictions >= 1

    def test_entries_fill_then_stop(self):
        controller, __ = _controller()
        controller.on_l1_miss(0x100, 0x8000, 0, sb_hit=False)
        for cycle in range(1, 20):
            controller.tick(cycle)
        buffer = controller.buffers[0]
        assert buffer.occupied_entries == len(buffer.entries)
        predictions = controller.predictions_made
        controller.tick(50)
        assert controller.predictions_made == predictions


class TestProbe:
    def _run_stream(self, cycles=30):
        controller, hierarchy = _controller()
        controller.on_l1_miss(0x100, 0x8000, 0, sb_hit=False)
        for cycle in range(1, cycles):
            controller.tick(cycle)
        return controller, hierarchy

    def test_probe_hits_prefetched_block(self):
        controller, __ = self._run_stream(cycles=200)
        ready = controller.probe(0x8000 + BLOCK, cycle=200)
        assert ready is not None
        assert ready <= 200
        assert controller.prefetches_used == 1

    def test_probe_frees_entry(self):
        controller, __ = self._run_stream(cycles=200)
        controller.probe(0x8000 + BLOCK, cycle=200)
        assert controller.probe(0x8000 + BLOCK, cycle=201) is None

    def test_probe_miss(self):
        controller, __ = self._run_stream()
        assert controller.probe(0xDEAD000, cycle=50) is None

    def test_probe_bumps_priority(self):
        controller, __ = self._run_stream(cycles=200)
        before = int(controller.buffers[0].priority)
        controller.probe(0x8000 + BLOCK, cycle=200)
        assert int(controller.buffers[0].priority) == min(12, before + 2)

    def test_probe_of_unprefetched_prediction_clears_entry(self):
        controller, hierarchy = _controller()
        controller.on_l1_miss(0x100, 0x8000, 0, sb_hit=False)
        hierarchy.l1_l2_bus.acquire(0, 8000)  # jam the bus for a long time
        for cycle in range(1, 6):
            controller.tick(cycle)
        assert controller.probe(0x8000 + BLOCK, cycle=6) is None
        assert controller.predicted_overtaken >= 1


class TestReallocationAccounting:
    def test_discarded_prefetches_counted(self):
        controller, __ = _controller()
        controller.on_l1_miss(0x100, 0x8000, 0, sb_hit=False)
        for cycle in range(1, 300):
            controller.tick(cycle)
        # Force reallocation of every buffer: unique PCs, distant blocks.
        for i in range(len(controller.buffers)):
            controller.on_l1_miss(0x900 + i * 4, 0x400000 + i * 65536, 300 + i,
                                  sb_hit=False)
        assert controller.prefetches_discarded >= 1


class TestBuildPrefetcher:
    def test_none_kind(self):
        assert build_prefetcher(PrefetchConfig(kind=PrefetcherKind.NONE), BLOCK) is None

    def test_kinds_map_to_predictors(self):
        seq = build_prefetcher(PrefetchConfig(kind=PrefetcherKind.SEQUENTIAL), BLOCK)
        stride = build_prefetcher(PrefetchConfig(kind=PrefetcherKind.STRIDE_PC), BLOCK)
        psb = build_prefetcher(
            PrefetchConfig(kind=PrefetcherKind.PREDICTOR_DIRECTED), BLOCK
        )
        assert isinstance(seq.predictor, SequentialPredictor)
        assert isinstance(stride.predictor, TwoDeltaStrideTable)
        assert isinstance(psb.predictor, StrideFilteredMarkovPredictor)

    def test_reset_stats_preserves_buffers(self):
        controller, __ = _controller()
        controller.on_l1_miss(0x100, 0x8000, 0, sb_hit=False)
        controller.reset_stats()
        assert controller.allocations == 0
        assert controller.buffers[0].allocated


class TestWarm:
    """Fast-forward warming: one bulk predictor call per stretch at
    either rate, and buffer priorities aged in closed form."""

    @pytest.mark.parametrize("detuned", [False, True], ids=["full", "detuned"])
    def test_one_bulk_call_per_stretch(self, detuned, monkeypatch):
        controller = StreamBufferController(
            StreamBufferConfig(), StrideFilteredMarkovPredictor(), BLOCK
        )
        predictor = controller.predictor
        train_all, age = predictor.train_all, controller._age_priorities
        bulk_calls, agings = [], []

        def recording_train_all(misses, align, parity=None):
            bulk_calls.append((len(misses), parity))
            train_all(misses, align, parity)

        def recording_age(misses=1):
            agings.append(misses)
            return age(misses)

        def per_miss(*args):
            raise AssertionError("a per-miss predictor call while warming")

        monkeypatch.setattr(predictor, "train_all", recording_train_all)
        monkeypatch.setattr(predictor, "train", per_miss)
        monkeypatch.setattr(predictor, "warm", per_miss)
        monkeypatch.setattr(controller, "_age_priorities", recording_age)
        stretch = [(0x100 + i % 3, i * 3 * BLOCK) for i in range(25)]
        controller.warm(stretch, detuned)
        controller.warm(stretch, detuned)
        controller.warm([], detuned)
        # The second stretch starts at the parity the first left.
        if detuned:
            assert bulk_calls == [(25, 0), (25, 1)]
            assert agings == [25, 25]
        else:
            assert bulk_calls == [(25, None)] * 2
            assert agings == []
        assert controller._warm_calls == 50
        assert predictor.stride_table.lookup(0x100) is not None

    @pytest.mark.parametrize(
        "start,count,amount,priorities,aged,remainder",
        [
            (7, 5, 1, [12, 5, 3], [11, 4, 2], 2),
            (4, 37, 2, [12, 9, 6], [4, 1, 0], 1),
            (0, 200, 3, [12, 4, 1], [0, 0, 0], 0),
            (6, 0, 1, [12, 5, 3], [12, 5, 3], 6),
        ],
        ids=["mid-period", "several-periods", "to-floor", "empty"],
    )
    def test_closed_form_aging_matches_per_miss_aging(
        self, start, count, amount, priorities, aged, remainder
    ):
        def make():
            controller = StreamBufferController(
                StreamBufferConfig(
                    num_buffers=len(priorities), priority_age_amount=amount
                ),
                SequentialPredictor(BLOCK),
                BLOCK,
            )
            controller._misses_since_aging = start
            for buffer, value in zip(controller.buffers, priorities):
                buffer.priority.set(value)
            return controller

        bulk, single = make(), make()
        misses = [(0x100, i * BLOCK) for i in range(count)]
        bulk.warm(misses, detuned=True)
        for __ in misses:
            single._age_priorities()
        for controller in (bulk, single):
            assert [int(b.priority) for b in controller.buffers] == aged
            assert controller._misses_since_aging == remainder
