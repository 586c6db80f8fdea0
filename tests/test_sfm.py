"""Unit tests for the Stride-Filtered Markov predictor (Section 4.2)."""

import pytest

from repro.config import MarkovPredictorConfig, StridePredictorConfig
from repro.predictors.sfm import StrideFilteredMarkovPredictor
from repro.sampling import FastForwardEngine
from repro.sim import Simulator, psb_config
from repro.workloads import cached_workload_trace


def _train_sequence(sfm, pc, addresses):
    return [sfm.train(pc, address) for address in addresses]


class TestFiltering:
    def test_stride_covered_misses_stay_out_of_markov(self):
        sfm = StrideFilteredMarkovPredictor()
        _train_sequence(sfm, 0x100, [i * 32 for i in range(10)])
        # Every transition was stride-covered, so the Markov table should
        # hold (almost) nothing: the filter worked.
        assert sfm.markov_table.trains <= 1

    def test_irregular_misses_train_markov(self):
        sfm = StrideFilteredMarkovPredictor()
        _train_sequence(sfm, 0x100, [0, 5000, 320, 7000])
        assert sfm.markov_table.trains >= 2

    def test_markov_learns_pointer_chain(self):
        sfm = StrideFilteredMarkovPredictor()
        chain = [0, 960, 320, 1280, 640]
        for __ in range(3):
            _train_sequence(sfm, 0x100, chain)
        # After training, the chain transitions are predictable.
        assert sfm.markov_table.lookup(960) == 320
        assert sfm.markov_table.lookup(320) == 1280


class TestConfidence:
    def test_repeating_chain_builds_confidence(self):
        sfm = StrideFilteredMarkovPredictor()
        chain = [0, 960, 320, 1280, 640]
        for __ in range(4):
            _train_sequence(sfm, 0x100, chain)
        assert sfm.confidence_for(0x100) >= 3

    def test_random_addresses_keep_zero_confidence(self):
        import random

        rng = random.Random(7)
        sfm = StrideFilteredMarkovPredictor()
        for __ in range(60):
            sfm.train(0x100, rng.randrange(0, 1 << 30) & ~31)
        assert sfm.confidence_for(0x100) <= 1

    def test_correct_when_either_component_matches(self):
        sfm = StrideFilteredMarkovPredictor()
        # Build a stable stride so the stride component predicts.
        results = _train_sequence(sfm, 0x100, [i * 64 for i in range(6)])
        assert results[-1]  # later trains predicted correctly


class TestStreamPrediction:
    def test_markov_hit_wins_over_stride(self):
        sfm = StrideFilteredMarkovPredictor()
        chain = [0, 960, 320, 1280, 640]
        for __ in range(3):
            _train_sequence(sfm, 0x100, chain)
        state = sfm.make_stream_state(0x100, 960)
        assert sfm.next_prediction(state) == 320
        assert sfm.next_prediction(state) == 1280

    def test_stride_fallback_on_markov_miss(self):
        sfm = StrideFilteredMarkovPredictor()
        _train_sequence(sfm, 0x100, [i * 32 for i in range(6)])
        state = sfm.make_stream_state(0x100, 1_000_000)
        assert state.stride == 32
        assert sfm.next_prediction(state) == 1_000_032

    def test_no_prediction_without_information(self):
        sfm = StrideFilteredMarkovPredictor()
        sfm.train(0x100, 0x5000)
        state = sfm.make_stream_state(0x100, 0x5000)
        assert sfm.next_prediction(state) is None

    def test_prediction_does_not_touch_tables(self):
        """The key PSB property: generating predictions must not modify
        the shared tables (Section 4.1)."""
        sfm = StrideFilteredMarkovPredictor()
        chain = [0, 960, 320, 1280, 640]
        for __ in range(3):
            _train_sequence(sfm, 0x100, chain)
        trains_before = sfm.markov_table.trains
        state = sfm.make_stream_state(0x100, 0)
        for __ in range(10):
            sfm.next_prediction(state)
        assert sfm.markov_table.trains == trains_before

    def test_speculative_state_advances(self):
        sfm = StrideFilteredMarkovPredictor()
        chain = [0, 960, 320, 1280, 640]
        for __ in range(3):
            _train_sequence(sfm, 0x100, chain)
        state = sfm.make_stream_state(0x100, 0)
        sfm.next_prediction(state)
        assert state.last_address == 960


class TestTwoMissReadiness:
    def test_needs_two_consecutive_correct(self):
        sfm = StrideFilteredMarkovPredictor()
        chain = [0, 960, 320, 1280, 640]
        _train_sequence(sfm, 0x100, chain)
        assert not sfm.allocation_ready(0x100)
        _train_sequence(sfm, 0x100, chain)
        _train_sequence(sfm, 0x100, chain)
        assert sfm.allocation_ready(0x100)


def _tables(sfm):
    """Every piece of state training touches, in LRU order."""
    strides = [
        [
            (pc, entry.last_address, entry.last_stride,
             entry.two_delta_stride, entry.confidence.value,
             entry.consecutive_correct, entry.consecutive_same_stride)
            for pc, entry in table_set.items()
        ]
        for table_set in sfm.stride_table._sets
    ]
    markov = sfm.markov_table
    transitions = [list(table_set.items()) for table_set in markov._sets]
    counters = (sfm.trains, sfm.correct_trains, markov.trains,
                markov.lookups, markov.hits, markov.trains_out_of_range)
    return strides, transitions, counters


def _miss_stream(seed, length=4_000):
    """Bursts of strided, chained and random misses from 24 loads over
    8 two-way stride sets, with deltas that overflow 16 bits, so every
    branch of training runs and both tables evict."""
    import random

    rng = random.Random(seed)
    chain = [rng.randrange(0, 1 << 20) for __ in range(24)]
    steps = {}
    misses = []
    while len(misses) < length:
        pc = 0x400 + rng.randrange(24)
        for __ in range(rng.randrange(4, 20)):
            step = steps.get(pc, 0)
            steps[pc] = step + 1
            shape = pc % 3
            if shape == 0:
                address = (pc << 16) + 96 * step + rng.choice((0, 0, 0, 64))
            elif shape == 1:
                address = chain[step % len(chain)]
            else:
                address = rng.randrange(0, 1 << 24)
            misses.append((pc, address))
    return misses[:length]


def _small_sfm():
    """An SFM small enough that the miss streams below evict from both
    tables."""
    return StrideFilteredMarkovPredictor(
        StridePredictorConfig(entries=16, associativity=2),
        MarkovPredictorConfig(entries=64, associativity=4),
    )


def _warm_per_miss(sfm, stretch, align, calls):
    """The per-miss calls one detuned stretch stands for: the run's
    ``calls``-th warmed miss trains fully when ``calls`` is even.
    Returns the count after the stretch."""
    for pc, address in stretch:
        calls += 1
        sfm.warm(pc, address & align, calls % 2 == 0)
    return calls


def _fast_forward_stretches(workload, counts):
    """The load-miss stretches fast-forward hands the psb controller,
    one per ``replay`` of ``counts[i]`` records."""
    records = cached_workload_trace(workload, seed=1,
                                    instructions=sum(counts))
    recorder = Simulator(psb_config())
    stretches = []
    recorder.hierarchy.prefetcher.warm = (
        lambda stretch, detuned: stretches.append(stretch)
    )
    engine = FastForwardEngine(recorder)
    source = iter(records)
    for count in counts:
        engine.replay(source, count)
    return stretches


class TestTrainAll:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_one_train_per_miss(self, seed):
        misses = _miss_stream(seed)
        align = ~31
        bulk, single = _small_sfm(), _small_sfm()
        # One call per stretch, as fast-forward makes them.
        for first in range(0, len(misses), 500):
            stretch = misses[first:first + 500]
            bulk.train_all(stretch, align)
            for pc, address in stretch:
                single.train(pc, address & align)
            assert _tables(bulk) == _tables(single)
        markov = single.markov_table
        assert 0 < markov.hits < markov.lookups
        assert 0 < single.correct_trains < single.trains
        entries = [
            entry
            for table_set in single.stride_table._sets
            for entry in table_set.values()
        ]
        assert any(entry.consecutive_correct > 0 for entry in entries)
        assert any(int(entry.confidence) > 0 for entry in entries)
        assert markov.trains_out_of_range > 0

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("start", [0, 1], ids=["even", "odd"])
    def test_detuned_matches_alternating_warm_calls(self, seed, start):
        misses = _miss_stream(seed)
        align = ~31
        bulk, single = _small_sfm(), _small_sfm()
        calls = start
        # Odd-length stretches, so each starts at the other parity.
        for first in range(0, len(misses), 499):
            stretch = misses[first:first + 499]
            bulk.train_all(stretch, align, calls & 1)
            calls = _warm_per_miss(single, stretch, align, calls)
            assert _tables(bulk) == _tables(single)
        # Every other miss trained fully; the rest skipped the Markov
        # lookup and the confidence, yet still trained the tables.
        markov = single.markov_table
        assert single.trains == len(misses) // 2
        assert 0 < markov.hits < markov.lookups
        assert 0 < single.correct_trains < single.trains
        assert any(
            int(entry.confidence) > 0
            for table_set in single.stride_table._sets
            for entry in table_set.values()
        )
        assert markov.trains_out_of_range > 0
        full = _small_sfm()
        full.train_all(misses, align)
        assert _tables(full) != _tables(single)

    @pytest.mark.parametrize("workload", ["health", "gs", "deltablue"])
    def test_matches_one_train_per_miss_on_workload_misses(self, workload):
        # The load misses fast-forward hands the psb controller, which
        # hit the Markov table on stride-covered misses too.
        (misses,) = _fast_forward_stretches(workload, [30_000])
        align = ~(psb_config().l1_data.block_size - 1)
        bulk = Simulator(psb_config()).hierarchy.prefetcher.predictor
        single = Simulator(psb_config()).hierarchy.prefetcher.predictor
        bulk.train_all(misses, align)
        for pc, address in misses:
            single.train(pc, address & align)
        assert _tables(bulk) == _tables(single)

    @pytest.mark.parametrize("workload", ["health", "gs", "deltablue"])
    def test_detuned_matches_alternating_warm_calls_on_workload_misses(
        self, workload
    ):
        stretches = _fast_forward_stretches(
            workload, [7_001, 9_999, 5_000, 8_000]
        )
        # Some stretch leaves an odd count, so a later one starts odd.
        assert any(len(stretch) % 2 for stretch in stretches[:-1])
        align = ~(psb_config().l1_data.block_size - 1)
        bulk = Simulator(psb_config()).hierarchy.prefetcher.predictor
        single = Simulator(psb_config()).hierarchy.prefetcher.predictor
        calls = 0
        for stretch in stretches:
            bulk.train_all(stretch, align, calls & 1)
            calls = _warm_per_miss(single, stretch, align, calls)
            assert _tables(bulk) == _tables(single)
        assert single.trains == calls // 2
