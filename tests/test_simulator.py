"""Tests for the end-to-end simulator driver and presets."""

import os
import subprocess
import sys

import pytest

import repro
from repro.config import (
    AllocationPolicy,
    PrefetcherKind,
    SchedulingPolicy,
)
from repro.sim import (
    SimulationResult,
    Simulator,
    baseline_config,
    paper_configs,
    psb_config,
    simulate,
    stride_config,
)
from repro.sim.presets import (
    FIGURE10_CACHES,
    PAPER_PREFETCH_LABELS,
    sequential_config,
)
from repro.sim.results import best_of
from repro.workloads import get_workload

RUN = dict(max_instructions=4000, warmup_instructions=1000)


class TestSimulate:
    def test_baseline_run_produces_stats(self):
        result = simulate(baseline_config(), get_workload("health"), **RUN)
        assert result.instructions == 3000
        assert result.cycles > 0
        assert 0.0 < result.ipc < 8.0
        assert 0.0 <= result.l1_miss_rate <= 1.0
        assert result.avg_load_latency >= 1.0
        assert result.prefetches_issued == 0

    def test_psb_run_issues_prefetches(self):
        result = simulate(
            psb_config(), get_workload("health"),
            max_instructions=20000, warmup_instructions=5000,
        )
        assert result.prefetches_issued > 0
        assert 0.0 <= result.prefetch_accuracy <= 1.0

    def test_deterministic(self):
        a = simulate(baseline_config(), get_workload("burg", seed=3), **RUN)
        b = simulate(baseline_config(), get_workload("burg", seed=3), **RUN)
        assert a.ipc == b.ipc
        assert a.cycles == b.cycles

    def test_simulator_object_exposes_parts(self):
        simulator = Simulator(psb_config())
        assert simulator.controller is not None
        assert simulator.hierarchy.prefetcher is simulator.controller

    def test_baseline_has_no_controller(self):
        assert Simulator(baseline_config()).controller is None


class TestResults:
    def test_speedup_over(self):
        base = SimulationResult(
            label="base", instructions=100, cycles=200, ipc=0.5,
            l1_miss_rate=0.1, avg_load_latency=2.0, load_fraction=0.3,
            store_fraction=0.1, branch_misprediction_rate=0.05,
            l1_l2_bus_utilization=0.2, l2_mem_bus_utilization=0.1,
        )
        better = SimulationResult(
            label="psb", instructions=100, cycles=160, ipc=0.625,
            l1_miss_rate=0.1, avg_load_latency=1.5, load_fraction=0.3,
            store_fraction=0.1, branch_misprediction_rate=0.05,
            l1_l2_bus_utilization=0.3, l2_mem_bus_utilization=0.1,
        )
        assert better.speedup_over(base) == pytest.approx(25.0)
        assert base.speedup_over(base) == 0.0

    def test_best_of(self):
        base = simulate(baseline_config(), get_workload("health"), **RUN)
        assert best_of({"only": base}) == "only"
        assert best_of({}) is None

    def test_summary_readable(self):
        result = simulate(baseline_config(), get_workload("health"), **RUN)
        assert "IPC" in result.summary()


class TestPresets:
    def test_paper_configs_labels(self):
        assert tuple(paper_configs()) == PAPER_PREFETCH_LABELS

    def test_stride_preset(self):
        config = stride_config()
        assert config.prefetch.kind == PrefetcherKind.STRIDE_PC
        assert config.prefetch.stream_buffers.allocation == AllocationPolicy.TWO_MISS
        assert (
            config.prefetch.stream_buffers.scheduling
            == SchedulingPolicy.ROUND_ROBIN
        )

    def test_psb_preset_defaults_to_best(self):
        config = psb_config()
        assert config.prefetch.kind == PrefetcherKind.PREDICTOR_DIRECTED
        assert config.prefetch.stream_buffers.allocation == AllocationPolicy.CONFIDENCE
        assert config.prefetch.stream_buffers.scheduling == SchedulingPolicy.PRIORITY

    def test_sequential_preset_runs(self):
        result = simulate(sequential_config(), get_workload("turb3d"), **RUN)
        assert result.cycles > 0


class TestSweeps:
    def test_figure10_geometries_build_and_simulate(self):
        for size_bytes, associativity, label in FIGURE10_CACHES:
            simulator = Simulator(
                baseline_config().with_l1(size_bytes, associativity)
            )
            l1 = simulator.hierarchy.l1
            assert l1.associativity == associativity
            assert l1.num_sets * associativity * l1.block_size == size_bytes
            result = simulator.run(get_workload("health"), label=label, **RUN)
            assert result.label == label
            assert result.instructions == 3000

    def test_smaller_cache_misses_more(self):
        big = simulate(
            baseline_config().with_l1(32 * 1024, 4), get_workload("health"),
            max_instructions=20000, warmup_instructions=5000,
        )
        small = simulate(
            baseline_config().with_l1(4 * 1024, 4), get_workload("health"),
            max_instructions=20000, warmup_instructions=5000,
        )
        assert small.l1_miss_rate >= big.l1_miss_rate


def _modules_loaded_by(module):
    """``sys.modules`` of a fresh interpreter after ``import module``."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    probe = (
        "import sys\n"
        f"import {module}\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=env, check=True,
    )
    loaded = set(proc.stdout.split())
    assert module in loaded
    return loaded


class TestLayering:
    def test_simulator_import_loads_no_runner_or_bench_harness(self):
        # The runner and the bench harness import the simulator, never
        # the reverse: a process that only simulates loads neither, nor
        # the process-pool machinery or progress tracker only campaigns
        # need.
        loaded = _modules_loaded_by("repro.sim.simulator")
        forbidden = {
            "repro.perf.bench",
            "repro.obs.progress",
            "repro.cli",
            "multiprocessing",
            "concurrent.futures.process",
        }
        leaked = sorted(
            name for name in loaded
            if name in forbidden or name.split(".")[:2] == ["repro", "runner"]
        )
        assert leaked == []

    def test_cli_import_loads_only_what_every_command_needs(self):
        # Each command imports its own machinery (the campaign runner,
        # the sampling code, the bench harness, the report renderer)
        # when it runs, so `from repro.cli import MACHINES` stays cheap.
        loaded = _modules_loaded_by("repro.cli")
        forbidden = {
            "repro.perf.bench",
            "repro.obs.report",
            "repro.analysis.summary",
            "multiprocessing",
        }
        leaked = sorted(
            name for name in loaded
            if name in forbidden
            or name.split(".")[:2] in (["repro", "runner"],
                                       ["repro", "sampling"])
        )
        assert leaked == []
