"""The metrics registry: histograms, probes, and sampling."""

import pytest

from repro.cli import MACHINES
from repro.errors import ConfigError
from repro.obs.metrics import (
    MISS_LATENCY_BOUNDS,
    HistogramMetric,
    MetricsRegistry,
    metric_name,
)
from repro.sim.simulator import Simulator
from repro.workloads import get_workload


class TestInstruments:
    def test_metric_name(self):
        assert metric_name("sb3", "priority") == "sb3.priority"


class TestHistogramBoundaries:
    def test_value_on_bound_lands_in_that_bucket(self):
        hist = HistogramMetric("h", bounds=(10.0, 20.0))
        hist.observe(10.0)  # inclusive upper bound
        hist.observe(10.1)
        hist.observe(20.0)
        assert hist.buckets() == {"le_10": 1, "le_20": 2, "overflow": 0}

    def test_above_last_bound_overflows(self):
        hist = HistogramMetric("h", bounds=(1.0,))
        hist.observe(1.0)
        hist.observe(1.0001)
        assert hist.overflow == 1
        assert hist.total == 2

    def test_mean_and_read(self):
        hist = HistogramMetric("h", bounds=(100.0,))
        assert hist.mean == 0.0
        hist.observe(10.0)
        hist.observe(20.0)
        assert hist.mean == 15.0
        assert hist.read() == 2.0

    def test_reset_zeroes_everything(self):
        hist = HistogramMetric("h", bounds=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(99.0)
        hist.reset()
        assert hist.total == 0
        assert hist.overflow == 0
        assert hist.buckets() == {"le_1": 0, "le_2": 0, "overflow": 0}

    def test_rejects_empty_bounds(self):
        with pytest.raises(ValueError):
            HistogramMetric("h", bounds=())

    def test_rejects_non_increasing_bounds(self):
        with pytest.raises(ValueError):
            HistogramMetric("h", bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            HistogramMetric("h", bounds=(2.0, 1.0))

    def test_default_latency_bounds_are_increasing(self):
        assert list(MISS_LATENCY_BOUNDS) == sorted(set(MISS_LATENCY_BOUNDS))


class TestSampling:
    def test_sample_reads_instruments_and_probes(self):
        registry = MetricsRegistry(100)
        hist = registry.histogram("h", "latency", (10.0,))
        registry.probe("p", "value", lambda: 7.0)
        for value in (1.0, 2.0, 50.0):
            hist.observe(value)
        registry.sample(100)
        hist.observe(4.0)
        registry.sample(200)
        assert [row["cycle"] for row in registry.samples] == [100, 200]
        assert registry.series("h.latency") == [(100, 3.0), (200, 4.0)]
        assert registry.series("p.value") == [(100, 7.0), (200, 7.0)]

    def test_same_cycle_sampled_once(self):
        registry = MetricsRegistry(100)
        registry.probe("c", "n", lambda: 1.0)
        registry.sample(50)
        registry.sample(50)
        assert [row["cycle"] for row in registry.samples] == [50]

    def test_probe_reregistration_replaces(self):
        registry = MetricsRegistry(100)
        registry.probe("core", "retired", lambda: 1.0)
        registry.probe("core", "retired", lambda: 2.0)
        assert registry.snapshot() == {"core.retired": 2.0}

    def test_to_payload_shape(self):
        registry = MetricsRegistry(100)
        registry.probe("c", "n", lambda: 1.0)
        hist = registry.histogram("h", "lat", (10.0,))
        hist.observe(5.0)
        registry.sample(10)
        payload = registry.to_payload()
        assert payload["final"]["c.n"] == 1.0
        assert payload["histograms"]["h.lat"]["buckets"] == {
            "le_10": 1, "overflow": 0,
        }
        assert payload["samples"][0]["cycle"] == 10


def _run(config, instructions=4_000, metrics_interval=None):
    simulator = Simulator(config, metrics_interval=metrics_interval)
    result = simulator.run(
        get_workload("health", seed=1), max_instructions=instructions
    )
    return simulator, result


class TestSimulatorSampling:
    def test_samples_land_on_interval_boundaries(self):
        simulator, result = _run(MACHINES["psb"](), metrics_interval=500)
        cycles = [row["cycle"] for row in simulator.metrics.samples]
        assert cycles[0] == 0
        # Every sample except the last (final cycle) is on a boundary.
        assert all(cycle % 500 == 0 for cycle in cycles[:-1])
        assert cycles[-1] == result.cycles
        assert cycles == sorted(cycles)

    def test_event_driven_and_stepped_sample_identical_cycles(self):
        """The acceptance property: the skip-ahead fast path must stop
        at metric boundaries, putting samples on the same cycles as the
        cycle-stepped loop — with identical values."""
        base = MACHINES["psb"]()
        fast_sim, fast = _run(
            base.with_event_driven(True), metrics_interval=750
        )
        slow_sim, slow = _run(
            base.with_event_driven(False), metrics_interval=750
        )
        assert fast.cycles == slow.cycles
        fast_rows = fast_sim.metrics.samples
        slow_rows = slow_sim.metrics.samples
        assert [r["cycle"] for r in fast_rows] == [
            r["cycle"] for r in slow_rows
        ]
        assert fast_rows == slow_rows

    def test_results_bit_identical_with_metrics_on(self):
        config = MACHINES["psb"]()
        __, plain = _run(config)
        __, observed = _run(config, metrics_interval=250)
        assert plain.cycles == observed.cycles
        assert plain.ipc == observed.ipc
        assert plain.l1_miss_rate == observed.l1_miss_rate
        assert plain.prefetch_accuracy == observed.prefetch_accuracy
        assert plain.extra == observed.extra

    def test_disabled_config_builds_null_context(self):
        """With no observer asked for, the simulator holds none."""
        simulator = Simulator(MACHINES["psb"]())
        assert simulator.metrics is None
        assert simulator.event_trace is None
        assert simulator.hierarchy.obs_trace is None
        assert simulator.hierarchy.obs_latency_hist is None
        assert simulator.controller.obs_trace is None

    @pytest.mark.parametrize("interval", [0, -5])
    def test_interval_below_one_is_a_config_error(self, interval):
        with pytest.raises(ConfigError, match="metrics_interval"):
            Simulator(MACHINES["psb"](), metrics_interval=interval)

    @pytest.mark.parametrize("interval", [1, 500])
    def test_sampled_machine_refuses_a_registry(self, interval):
        config = MACHINES["psb"]().with_sampling(
            period=4_000, window=1_000, warmup=500
        )
        with pytest.raises(ConfigError, match="metrics_interval"):
            Simulator(config, metrics_interval=interval)

    def test_component_metrics_present(self):
        simulator, __ = _run(MACHINES["psb"](), metrics_interval=1000)
        final = simulator.metrics.snapshot()
        for key in (
            "core.retired", "hierarchy.demand_misses", "l1.accesses",
            "bus_l1_l2.busy_cycles", "mshr_l1.allocations", "tlb.misses",
            "prefetcher.prefetches_issued", "predictor.accuracy",
            "scheduler.prediction_grants", "sb0.priority", "sb7.hits",
            "hierarchy.miss_latency",
        ):
            assert key in final, key

    def test_latency_histogram_counts_misses(self):
        simulator, result = _run(MACHINES["base"](), metrics_interval=1000)
        hist = simulator.metrics.to_payload()["histograms"][
            "hierarchy.miss_latency"
        ]
        assert hist["total"] > 0
        assert hist["mean"] > 0
