"""Unit tests for the two-delta stride predictor."""

import random

import pytest

from repro.config import StridePredictorConfig
from repro.predictors.stride import StrideEntry, TwoDeltaStrideTable


class TestStrideEntry:
    def test_two_delta_requires_repeat(self):
        entry = StrideEntry(pc=0x100, address=0, confidence_max=7)
        entry.observe(32)  # stride 32, seen once
        assert entry.two_delta_stride == 0
        entry.observe(64)  # stride 32, seen twice in a row
        assert entry.two_delta_stride == 32

    def test_one_off_stride_does_not_disturb(self):
        """The point of two-delta: a single irregular access keeps the
        confirmed stride."""
        entry = StrideEntry(pc=0x100, address=0, confidence_max=7)
        for address in (32, 64, 96):
            entry.observe(address)
        assert entry.two_delta_stride == 32
        entry.observe(1000)  # one irregular jump
        assert entry.two_delta_stride == 32

    def test_stride_change_needs_two_observations(self):
        entry = StrideEntry(pc=0x100, address=0, confidence_max=7)
        entry.observe(32)
        entry.observe(64)
        entry.observe(128)  # stride 64 once
        assert entry.two_delta_stride == 32
        entry.observe(192)  # stride 64 twice
        assert entry.two_delta_stride == 64

    def test_predicted_address(self):
        entry = StrideEntry(pc=0x100, address=0, confidence_max=7)
        entry.observe(32)
        entry.observe(64)
        assert entry.predicted_address == 96


class TestTwoDeltaStrideTable:
    def test_train_reports_correctness(self):
        table = TwoDeltaStrideTable()
        assert not table.train(0x100, 0)  # first touch allocates
        assert not table.train(0x100, 32)
        assert not table.train(0x100, 64)  # two-delta becomes 32 now
        assert table.train(0x100, 96)  # predicted 64 + 32

    def test_confidence_tracks_accuracy(self):
        table = TwoDeltaStrideTable()
        for i in range(8):
            table.train(0x100, i * 32)
        assert table.confidence_for(0x100) >= 5
        table.train(0x100, 10_000)
        table.train(0x100, 77_777)
        assert table.confidence_for(0x100) <= 4

    def test_confidence_unknown_pc(self):
        assert TwoDeltaStrideTable().confidence_for(0xDEAD) == 0

    def test_allocation_ready_needs_repeated_stride(self):
        table = TwoDeltaStrideTable()
        table.train(0x100, 0)
        table.train(0x100, 32)
        assert not table.allocation_ready(0x100)
        table.train(0x100, 64)
        assert table.allocation_ready(0x100)

    def test_set_associative_replacement(self):
        config = StridePredictorConfig(entries=4, associativity=2)
        table = TwoDeltaStrideTable(config)
        # Two sets; PCs 0, 2, 4 all map to set 0.
        table.train(0, 0)
        table.train(2, 0)
        table.train(0, 32)  # touch PC 0 -> PC 2 becomes LRU
        table.train(4, 0)  # evicts PC 2
        assert table.lookup(0) is not None
        assert table.lookup(2) is None
        assert table.lookup(4) is not None

    def test_stream_state_copies_stride_and_confidence(self):
        table = TwoDeltaStrideTable()
        for i in range(6):
            table.train(0x100, i * 64)
        state = table.make_stream_state(0x100, 320)
        assert state.stride == 64
        assert state.confidence >= 2
        assert state.last_address == 320

    def test_next_prediction_walks_stride(self):
        table = TwoDeltaStrideTable()
        for i in range(4):
            table.train(0x100, i * 64)
        state = table.make_stream_state(0x100, 256)
        assert table.next_prediction(state) == 320
        assert table.next_prediction(state) == 384

    def test_next_prediction_none_without_stride(self):
        table = TwoDeltaStrideTable()
        table.train(0x100, 0)
        state = table.make_stream_state(0x100, 0)
        assert table.next_prediction(state) is None

    def test_accuracy_statistic(self):
        table = TwoDeltaStrideTable()
        for i in range(10):
            table.train(0x100, i * 32)
        assert 0.0 < table.accuracy < 1.0


def _stride_state(table):
    """Every entry field and counter training touches, in LRU order."""
    entries = [
        [
            (pc, entry.last_address, entry.last_stride,
             entry.two_delta_stride, entry.confidence.value,
             entry.consecutive_correct, entry.consecutive_same_stride)
            for pc, entry in table_set.items()
        ]
        for table_set in table._sets
    ]
    return entries, table.trains, table.correct_trains


class TestTrainAll:
    """The default bulk contract, which the stride table inherits."""

    @pytest.mark.parametrize("parity", [None, 0, 1],
                             ids=["full", "even", "odd"])
    def test_matches_the_per_miss_calls(self, parity):
        rng = random.Random(5)
        steps = {}
        misses = []
        for __ in range(2_000):
            pc = 0x400 + 4 * rng.randrange(12)
            steps[pc] = steps.get(pc, 0) + 1
            jitter = rng.choice((0, 0, 0, 200))
            misses.append((pc, (pc << 12) + 64 * steps[pc] + jitter))
        align = ~31
        config = StridePredictorConfig(entries=16, associativity=2)
        bulk, single = TwoDeltaStrideTable(config), TwoDeltaStrideTable(config)
        bulk.train_all(misses, align, parity)
        calls = parity
        for pc, address in misses:
            if parity is None:
                single.train(pc, address & align)
            else:
                calls += 1
                single.warm(pc, address & align, calls % 2 == 0)
        assert _stride_state(bulk) == _stride_state(single)
        assert 0 < single.correct_trains < single.trains
        expected = len(misses) if parity is None else len(misses) // 2
        assert single.trains == expected
