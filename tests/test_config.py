"""Unit tests for repro.config."""

import pytest

from repro.config import (
    AllocationPolicy,
    BusConfig,
    CacheConfig,
    CoreConfig,
    DisambiguationPolicy,
    MarkovPredictorConfig,
    MemoryConfig,
    PrefetchConfig,
    PrefetcherKind,
    SimConfig,
    StreamBufferConfig,
    StridePredictorConfig,
    TlbConfig,
)
from repro.errors import ConfigError


class TestCacheConfig:
    def test_baseline_l1_geometry(self):
        config = SimConfig().l1_data
        assert config.size_bytes == 32 * 1024
        assert config.associativity == 4
        assert config.block_size == 32
        assert config.num_sets == 256
        assert config.num_blocks == 1024

    def test_baseline_l2_geometry(self):
        config = SimConfig().l2_unified
        assert config.size_bytes == 1024 * 1024
        assert config.block_size == 64
        assert config.hit_latency == 12

    def test_rejects_non_power_of_two_block(self):
        with pytest.raises(ValueError):
            CacheConfig(
                name="bad", size_bytes=1024, associativity=2, block_size=24,
                hit_latency=1,
            )

    def test_rejects_indivisible_size(self):
        with pytest.raises(ValueError):
            CacheConfig(
                name="bad", size_bytes=1000, associativity=3, block_size=32,
                hit_latency=1,
            )


class TestBusConfig:
    def test_paper_bandwidths(self):
        config = SimConfig()
        assert config.l1_l2_bus.bytes_per_cycle == 8
        assert config.l2_mem_bus.bytes_per_cycle == 4

    def test_transfer_cycles_rounds_up(self):
        bus = BusConfig(name="b", bytes_per_cycle=8)
        assert bus.transfer_cycles(32) == 4
        assert bus.transfer_cycles(33) == 5
        assert bus.transfer_cycles(1) == 1


class TestCoreConfig:
    def test_paper_parameters(self):
        core = SimConfig().core
        assert core.fetch_width == 8
        assert core.rob_entries == 128
        assert core.lsq_entries == 64
        assert core.mispredict_penalty == 8
        assert core.store_forward_latency == 2
        assert core.branch_predictions_per_cycle == 2
        assert core.disambiguation == DisambiguationPolicy.PERFECT_STORE_SETS


class TestSimConfigHelpers:
    def test_with_prefetcher(self):
        base = SimConfig()
        psb = base.with_prefetcher(
            PrefetchConfig(kind=PrefetcherKind.PREDICTOR_DIRECTED)
        )
        assert base.prefetch.kind == PrefetcherKind.NONE
        assert psb.prefetch.kind == PrefetcherKind.PREDICTOR_DIRECTED

    def test_with_l1_resizes_only_l1(self):
        resized = SimConfig().with_l1(16 * 1024, 4)
        assert resized.l1_data.size_bytes == 16 * 1024
        assert resized.l2_unified.size_bytes == 1024 * 1024

    def test_with_disambiguation(self):
        nodis = SimConfig().with_disambiguation(
            DisambiguationPolicy.NO_DISAMBIGUATION
        )
        assert nodis.core.disambiguation == DisambiguationPolicy.NO_DISAMBIGUATION

    def test_configs_are_frozen(self):
        config = SimConfig()
        with pytest.raises(Exception):
            config.l2_pipeline_depth = 5

    def test_default_prefetcher_is_none(self):
        assert SimConfig().prefetch.kind == PrefetcherKind.NONE

    def test_stream_buffer_paper_constants(self):
        sb = PrefetchConfig().stream_buffers
        assert sb.num_buffers == 8
        assert sb.entries_per_buffer == 4
        assert sb.priority_max == 12
        assert sb.priority_hit_bonus == 2
        assert sb.priority_age_period == 10
        assert sb.confidence_threshold == 1
        assert sb.allocation == AllocationPolicy.CONFIDENCE

    def test_markov_paper_constants(self):
        markov = PrefetchConfig().markov
        assert markov.entries == 2048
        assert markov.delta_bits == 16


class TestConstructionValidation:
    """Invalid values fail at construction with the offending field named,
    instead of blowing up deep inside the simulator."""

    def test_non_positive_cache_size(self):
        with pytest.raises(ConfigError) as excinfo:
            CacheConfig(
                name="bad", size_bytes=0, associativity=2, block_size=32,
                hit_latency=1,
            )
        assert "size_bytes" in excinfo.value.field

    def test_non_positive_associativity(self):
        with pytest.raises(ConfigError) as excinfo:
            CacheConfig(
                name="bad", size_bytes=1024, associativity=0, block_size=32,
                hit_latency=1,
            )
        assert "associativity" in excinfo.value.field

    def test_config_error_is_a_value_error(self):
        """Legacy callers catching ValueError still work."""
        with pytest.raises(ValueError):
            CacheConfig(
                name="bad", size_bytes=-1, associativity=2, block_size=32,
                hit_latency=1,
            )

    def test_zero_bandwidth_bus(self):
        with pytest.raises(ConfigError):
            BusConfig(name="bad", bytes_per_cycle=0)

    def test_zero_entry_stride_predictor(self):
        with pytest.raises(ConfigError) as excinfo:
            StridePredictorConfig(entries=0)
        assert "StridePredictorConfig.entries" == excinfo.value.field

    def test_zero_entry_markov_predictor(self):
        with pytest.raises(ConfigError):
            MarkovPredictorConfig(entries=0)

    def test_zero_entry_tlb(self):
        with pytest.raises(ConfigError):
            TlbConfig(entries=0)

    def test_non_power_of_two_page_size(self):
        with pytest.raises(ConfigError):
            TlbConfig(page_size=1000)

    def test_negative_memory_latency(self):
        with pytest.raises(ConfigError):
            MemoryConfig(access_latency=-1)

    def test_zero_width_core(self):
        with pytest.raises(ConfigError) as excinfo:
            CoreConfig(issue_width=0)
        assert "issue_width" in excinfo.value.field

    def test_zero_buffer_stream_config(self):
        with pytest.raises(ConfigError):
            StreamBufferConfig(num_buffers=0)

    @pytest.mark.parametrize(
        "field", ["priority_hit_bonus", "priority_age_amount"]
    )
    def test_negative_priority_amount(self, field):
        # A negative amount would push a priority past its saturating
        # counter's unclamped side.
        with pytest.raises(ConfigError) as excinfo:
            StreamBufferConfig(**{field: -2})
        assert excinfo.value.field == f"StreamBufferConfig.{field}"

    def test_zero_priority_amounts_are_allowed(self):
        config = StreamBufferConfig(
            priority_hit_bonus=0, priority_age_amount=0
        )
        assert (config.priority_hit_bonus, config.priority_age_amount) == (
            0, 0
        )

    def test_confidence_threshold_outside_counter_range(self):
        with pytest.raises(ConfigError) as excinfo:
            PrefetchConfig(
                stream_buffers=StreamBufferConfig(confidence_threshold=8),
                stride=StridePredictorConfig(confidence_max=7),
            )
        assert "confidence_threshold" in excinfo.value.field

    def test_threshold_at_counter_max_is_allowed(self):
        config = PrefetchConfig(
            stream_buffers=StreamBufferConfig(confidence_threshold=7),
            stride=StridePredictorConfig(confidence_max=7),
        )
        assert config.stream_buffers.confidence_threshold == 7
