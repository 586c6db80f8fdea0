"""SMARTS-style sampled simulation: config, driver, resume, integration.

The sampled estimator's contract has three legs, each pinned here:

- **Determinism** — window placement is a pure function of record
  counts, so the sampled result is bit-identical between the
  event-driven and cycle-stepped core loops, across snapshot
  resume seams, and under chaos-killed campaign workers.
- **Accuracy** — the stitched IPC stays within the stated error bound
  of the detailed reference (the full six-workload gate lives in
  ``bench --sampling``; here a fast subset plus the 1M acceptance
  workload keep the bound honest in the test suite).
- **Isolation** — sampling must never perturb the detailed path, and
  incompatible combinations (run-level warm-up, a snapshot whose mode
  tag disagrees with its machine) fail loudly.
"""

import pytest

from repro.config import SamplingConfig, SimConfig
from repro.errors import ConfigError, IntegrityError, SimulationError
from repro.integrity.golden import GoldenCache, run_golden
from repro.integrity.snapshot import SimSnapshot, resume_run
from repro.memory.hierarchy import PrefetcherPort
from repro.runner import (
    CampaignRunner,
    ChaosSpec,
    RunSpec,
    WorkloadSpec,
    execute_spec,
)
from repro.sampling import FastForwardEngine
from repro.sim import baseline_config, psb_config
from repro.sim.presets import demand_markov_config, next_line_config
from repro.sim.simulator import Simulator
from repro.trace.record import InstrKind
from repro.workloads import cached_workload_trace


def _result_key(result):
    """Every architectural field plus the per-window rows."""
    return (
        result.instructions,
        result.cycles,
        result.ipc,
        result.l1_miss_rate,
        result.avg_load_latency,
        result.prefetches_issued,
        result.prefetches_used,
        result.forwarded_loads,
        tuple(sorted(
            (k, v) for k, v in result.extra.items()
            if k != "resumed_from_cycle"
        )),
    )


# ----------------------------------------------------------------------
# SamplingConfig
# ----------------------------------------------------------------------


class TestSamplingConfig:
    def test_defaults(self):
        config = SamplingConfig()
        assert (config.period, config.window, config.warmup) == (
            50_000, 1_000, 500
        )
        assert config.detailed_per_period == 1_500

    def test_with_sampling_round_trip(self):
        config = SimConfig().with_sampling(period=10_000, window=400,
                                           warmup=100)
        assert config.sampling == SamplingConfig(10_000, 400, 100)
        assert SimConfig().sampling is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"period": 0},
            {"period": -5},
            {"window": 0},
            {"warmup": -1},
            # The detailed stretch must leave room for a gap.
            {"period": 1_000, "window": 800, "warmup": 200},
            {"period": 1_000, "window": 1_200, "warmup": 0},
        ],
    )
    def test_invalid_shapes_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SamplingConfig(**kwargs)


# ----------------------------------------------------------------------
# Guard rails
# ----------------------------------------------------------------------


class TestGuards:
    def test_run_level_warmup_rejected(self):
        simulator = Simulator(psb_config().with_sampling())
        records = cached_workload_trace("health", seed=1, instructions=100)
        with pytest.raises(SimulationError, match="warm"):
            simulator.run(records, max_instructions=100,
                          warmup_instructions=50)


# ----------------------------------------------------------------------
# Mode-independence and determinism
# ----------------------------------------------------------------------


#: The two sampling shapes: the classic single grid with full-rate
#: warming, and the tuned one (``bench --sampling``'s gated leg), whose
#: detuned warming carries a miss-count parity and a priority-aging
#: phase across fast-forward stretches and snapshot seams.
_SHAPES = {
    "classic": {},
    "tuned": {"strata": 4, "warm_confidence": True},
}


class TestDeterminism:
    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_event_and_stepped_loops_agree_bitwise(self, shape):
        records = cached_workload_trace("health", seed=1,
                                        instructions=120_000)
        config = psb_config().with_sampling(period=40_000, window=1_000,
                                            warmup=500, **_SHAPES[shape])
        event = Simulator(config).run(records, max_instructions=120_000)
        stepped = Simulator(config.with_event_driven(False)).run(
            records, max_instructions=120_000
        )
        assert event.extra["windows"] >= 2
        assert _result_key(event) == _result_key(stepped)

    def test_rerun_is_bit_identical(self):
        records = cached_workload_trace("gs", seed=1, instructions=60_000)
        config = psb_config().with_sampling(period=20_000, window=500,
                                            warmup=250)
        first = Simulator(config).run(records, max_instructions=60_000)
        second = Simulator(config).run(records, max_instructions=60_000)
        assert _result_key(first) == _result_key(second)

    def test_windows_sit_on_the_midpoint_grid(self):
        # 3 periods of 30k with a 1.5k detailed stretch: the fast-forward
        # engine replays everything else, so ff + measured + warmup
        # accounts for every record.
        records = cached_workload_trace("health", seed=1,
                                        instructions=90_000)
        config = psb_config().with_sampling(period=30_000, window=1_000,
                                            warmup=500)
        result = Simulator(config).run(records, max_instructions=90_000)
        assert result.extra["windows"] == 3.0
        assert result.extra["measured_instructions"] == 3_000.0
        consumed = (
            result.extra["ff_instructions"]
            + result.extra["measured_instructions"]
            + 3 * 500
        )
        assert consumed == 90_000.0


# ----------------------------------------------------------------------
# Accuracy
# ----------------------------------------------------------------------


class TestErrorBound:
    @pytest.mark.parametrize("workload,bound", [
        ("turb3d", 0.25),
        ("sis", 0.20),
    ])
    def test_short_trace_error(self, workload, bound):
        records = cached_workload_trace(workload, seed=1,
                                        instructions=200_000)
        config = psb_config()
        detailed = Simulator(config).run(
            records, max_instructions=200_000, warmup_instructions=0
        )
        sampled = Simulator(
            config.with_sampling(period=50_000, window=1_000, warmup=500)
        ).run(records, max_instructions=200_000)
        error = abs(sampled.ipc - detailed.ipc) / detailed.ipc
        assert error <= bound, (
            f"{workload}: sampled {sampled.ipc:.4f} vs detailed "
            f"{detailed.ipc:.4f} ({error * 100:.1f}% > {bound * 100:.0f}%)"
        )

    @pytest.mark.slow
    def test_acceptance_scale_error(self):
        # The worst of the six workloads at the acceptance scale
        # (dominated by its long cold-start transient; see
        # docs/performance.md) must stay inside the stated bound.
        records = cached_workload_trace("health", seed=1,
                                        instructions=1_000_000)
        config = psb_config()
        detailed = Simulator(config).run(
            records, max_instructions=1_000_000, warmup_instructions=0
        )
        sampled = Simulator(config.with_sampling()).run(
            records, max_instructions=1_000_000
        )
        error = abs(sampled.ipc - detailed.ipc) / detailed.ipc
        assert error <= 0.20
        assert sampled.extra["windows"] == 20.0

    def test_detailed_mode_untouched_by_sampling_import(self):
        # The detailed path must produce the same result whether or not
        # the sampling subsystem was ever exercised in the process.
        records = cached_workload_trace("health", seed=1,
                                        instructions=20_000)
        config = psb_config()
        before = Simulator(config).run(records, max_instructions=20_000,
                                       warmup_instructions=0)
        Simulator(
            config.with_sampling(period=5_000, window=300, warmup=100)
        ).run(records, max_instructions=20_000)
        after = Simulator(config).run(records, max_instructions=20_000,
                                      warmup_instructions=0)
        assert (before.ipc, before.cycles) == (after.ipc, after.cycles)


# ----------------------------------------------------------------------
# Snapshots: mode tag, cross-mode refusal, bit-identical resume
# ----------------------------------------------------------------------


class TestSampledSnapshots:
    def _sampled_run(self, records, config, sink=None):
        return Simulator(config).run(
            records,
            max_instructions=100_000,
            label="snap",
            snapshot_every=1_500,
            snapshot_sink=sink,
        )

    def test_snapshots_carry_the_sampled_mode(self):
        records = cached_workload_trace("health", seed=1,
                                        instructions=100_000)
        config = psb_config().with_sampling(period=20_000, window=1_000,
                                            warmup=500)
        snapshots = []
        self._sampled_run(records, config, snapshots.append)
        assert snapshots
        assert all(s.mode == "sampled" for s in snapshots)

    def test_detailed_snapshots_stay_detailed(self):
        records = cached_workload_trace("health", seed=1,
                                        instructions=3_000)
        snapshots = []
        Simulator(psb_config()).run(
            records, max_instructions=3_000,
            snapshot_every=500, snapshot_sink=snapshots.append,
        )
        assert snapshots
        assert all(s.mode == "detailed" for s in snapshots)

    def test_legacy_pickles_backfill_detailed_mode(self):
        snapshot = SimSnapshot(b"payload", cycle=1, records_consumed=1,
                               label="old")
        state = snapshot.__getstate__()
        del state["mode"]
        revived = SimSnapshot.__new__(SimSnapshot)
        revived.__setstate__(state)
        assert revived.mode == "detailed"

    def test_cross_mode_resume_refused_both_ways(self):
        # resume_run checks the snapshot's tag against the restored
        # machine's config, so a mislabelled snapshot of either kind is
        # refused before it runs.
        records = cached_workload_trace("health", seed=1,
                                        instructions=100_000)
        sampled_config = psb_config().with_sampling(
            period=20_000, window=1_000, warmup=500
        )
        sampled_snaps, detailed_snaps = [], []
        self._sampled_run(records, sampled_config, sampled_snaps.append)
        Simulator(psb_config()).run(
            records, max_instructions=3_000,
            snapshot_every=500, snapshot_sink=detailed_snaps.append,
        )
        sampled_snaps[0].mode = "detailed"
        detailed_snaps[0].mode = "sampled"
        with pytest.raises(IntegrityError, match="runs in 'sampled' mode"):
            resume_run(sampled_snaps[0], records)
        with pytest.raises(IntegrityError, match="runs in 'detailed' mode"):
            resume_run(detailed_snaps[0], records)

    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_resume_is_bit_identical(self, shape):
        records = cached_workload_trace("health", seed=1,
                                        instructions=100_000)
        config = psb_config().with_sampling(period=20_000, window=1_000,
                                            warmup=500, **_SHAPES[shape])
        snapshots = []
        whole = self._sampled_run(records, config, snapshots.append)
        assert snapshots
        seams = (snapshots[0], snapshots[-1])
        for snapshot in seams:
            resumed = resume_run(snapshot, records)
            assert resumed.extra["resumed_from_cycle"] == float(
                snapshot.cycle
            )
            assert _result_key(resumed) == _result_key(whole)
        if shape == "tuned":
            # The seams fall at both parities of the warmed-miss count
            # and part-way through an aging period.
            controllers = [
                snapshot.restore()[0].hierarchy.prefetcher
                for snapshot in seams
            ]
            assert {c._warm_calls & 1 for c in controllers} == {0, 1}
            assert all(c._misses_since_aging for c in controllers)


# ----------------------------------------------------------------------
# Campaign integration: process isolation, chaos, manifests
# ----------------------------------------------------------------------


def _sampled_spec(run_id, seed=1):
    return RunSpec(
        run_id=run_id,
        config=psb_config().with_sampling(period=20_000, window=1_000,
                                          warmup=500),
        trace=WorkloadSpec("health", seed=seed),
        max_instructions=60_000,
        warmup_instructions=0,
    )


class TestSampledCampaigns:
    def test_execute_spec_runs_sampled(self):
        result = execute_spec(_sampled_spec("one"))
        assert result.extra["sampled"] == 1.0
        assert result.extra["windows"] >= 1.0

    def test_manifest_marks_sampled_points(self, tmp_path):
        campaign = CampaignRunner(
            str(tmp_path), isolation="inline"
        ).run([_sampled_spec("health/psb")])
        point = campaign.manifest["metrics"]["health/psb"]
        assert point["sampled"] is True
        assert point["windows"] >= 1
        assert "ipc_ci95" in point

    @pytest.mark.slow
    def test_chaos_killed_campaign_is_bit_identical(self, tmp_path):
        specs = [_sampled_spec("p0", seed=1), _sampled_spec("p1", seed=2)]
        clean = CampaignRunner(
            str(tmp_path / "clean"), workers=2, isolation="process",
            snapshot_every=1_500,
        ).run(specs)
        chaotic = CampaignRunner(
            str(tmp_path / "chaos"), workers=2, isolation="process",
            snapshot_every=1_500, backoff_base=0.0,
            chaos=ChaosSpec(kill_points=(0,)),
        ).run(specs)
        assert chaotic.manifest["ok"] == 2
        assert chaotic.manifest["chaos"]["counters"]["worker_kills"] >= 1
        for run_id in ("p0", "p1"):
            reference = clean.results[run_id]
            survivor = chaotic.results[run_id]
            assert (survivor.ipc, survivor.cycles,
                    survivor.instructions) == (
                reference.ipc, reference.cycles, reference.instructions
            )
            assert survivor.extra["windows"] == reference.extra["windows"]


# ----------------------------------------------------------------------
# The fast-forward engine and warming API
# ----------------------------------------------------------------------


class _RecordingPrefetcher(PrefetcherPort):
    def __init__(self):
        self.calls = []

    def on_l1_miss(self, pc, addr, cycle, sb_hit):
        self.calls.append((pc, addr, cycle, sb_hit))


def _reference_replay(simulator, records):
    """Warm ``simulator`` through the detailed models' own methods.

    Applies them in the order the timed hierarchy does for a miss:
    ``_fetch_from_l2`` looks up the L2 and fills it, ``drain`` fills the
    L1, and ``_write_back_l1_victim`` marks a dirty victim in the L2 or
    fills it there dirty.  Branches go through ``GsharePredictor.update``.
    """
    l1 = simulator.hierarchy.l1
    l2 = simulator.hierarchy.l2
    bp = simulator.core.branch_predictor
    for record in records:
        if record.kind is InstrKind.BRANCH:
            bp.update(record.pc, record.taken)
            continue
        if record.kind not in (InstrKind.LOAD, InstrKind.STORE):
            continue
        is_store = record.kind is InstrKind.STORE
        if l1.access(record.addr, is_store=is_store):
            continue
        if not l2.access(record.addr):
            l2.insert(record.addr)
        victim = l1.insert(record.addr, dirty=is_store)
        if victim is not None and victim[1]:
            if not l2.mark_dirty(victim[0]):
                l2.insert(victim[0], dirty=True)


def _cache_sets(cache):
    return [list(cache_set.items()) for cache_set in cache._sets]


#: Fast-forward drift points: every workload, with and without a
#: prefetcher, at the default L1 and at a 4 KB L1 that forces dirty
#: write-backs into the L2.
_DRIFT_CONFIGS = {
    "base": baseline_config,
    "psb": psb_config,
    "base-4k": lambda: baseline_config().with_l1(4 * 1024, 4),
    "psb-4k": lambda: psb_config().with_l1(4 * 1024, 4),
}
_DRIFT_RECORDS = 30_000


class TestFastForward:
    def test_warm_defaults_to_on_l1_miss(self):
        port = _RecordingPrefetcher()
        misses = [(0x400, 0x8000), (0x404, 0x9000)]
        for detuned in (False, True):
            port.calls.clear()
            port.warm(misses, detuned)
            assert port.calls == [
                (0x400, 0x8000, 0, False),
                (0x404, 0x9000, 0, False),
            ]

    def test_replay_warms_the_prefetcher_once_per_stretch(self):
        records = cached_workload_trace("sis", seed=1, instructions=5_000)
        simulator = Simulator(baseline_config())
        port = _RecordingPrefetcher()
        simulator.hierarchy.prefetcher = port
        engine = FastForwardEngine(simulator)
        warms = []
        port.warm = lambda misses, detuned: warms.append(list(misses))
        engine.replay(iter(records), 5_000)
        # The stretch's load misses, in trace order: stores miss too
        # but never train a prefetcher.
        l1 = simulator.config.l1_data
        golden = GoldenCache(l1.size_bytes, l1.block_size, l1.associativity)
        load_misses = []
        for record in records:
            if record.kind in (InstrKind.LOAD, InstrKind.STORE):
                hit = golden.access(record.addr)
                if not hit and record.kind is InstrKind.LOAD:
                    load_misses.append((record.pc, record.addr))
        assert 0 < len(load_misses) < engine.totals["l1_misses"]
        assert warms == [load_misses]
        assert port.calls == []

    def test_replay_counts_and_trace_exhaustion(self):
        records = cached_workload_trace("health", seed=1,
                                        instructions=5_000)
        engine = FastForwardEngine(Simulator(psb_config()))
        source = iter(records)
        assert engine.replay(source, 3_000) == 3_000
        assert engine.totals["instructions"] == 3_000
        # Asking past the end reports the short pull.
        assert engine.replay(source, 5_000) == 2_000
        assert engine.totals["instructions"] == 5_000

    def test_replay_adds_to_the_totals_it_is_given(self):
        records = cached_workload_trace("health", seed=1,
                                        instructions=1_000)
        totals = {"instructions": 7, "l1_misses": 3, "loads": 99}
        engine = FastForwardEngine(Simulator(psb_config()), totals)
        engine.replay(iter(records), 1_000)
        assert totals["instructions"] == 1_007
        assert totals["l1_misses"] > 3
        assert totals["loads"] == 99

    def test_pending_record_replays_without_counting(self):
        records = cached_workload_trace("health", seed=1,
                                        instructions=100)
        engine = FastForwardEngine(Simulator(psb_config()))
        source = iter(records[1:])
        pulled = engine.replay(source, 10, pending=records[0])
        assert pulled == 10
        assert engine.totals["instructions"] == 11

    @pytest.mark.parametrize("config", [next_line_config,
                                        demand_markov_config])
    def test_warm_bounds_demand_prefetcher_queues(self, config):
        simulator = Simulator(config())
        prefetcher = simulator.hierarchy.prefetcher
        engine = FastForwardEngine(simulator)
        records = cached_workload_trace("gs", seed=1, instructions=50_000)
        engine.replay(iter(records), 50_000)
        assert engine.totals["l1_misses"] > prefetcher.buffer.entries
        assert 0 < len(prefetcher._pending) <= prefetcher.buffer.entries

    @pytest.mark.parametrize("config_name", sorted(_DRIFT_CONFIGS))
    @pytest.mark.parametrize(
        "workload", ["health", "gs", "sis", "turb3d", "many_streams"]
    )
    def test_fast_forward_matches_the_models_it_copies(
        self, workload, config_name
    ):
        config = _DRIFT_CONFIGS[config_name]()
        records = cached_workload_trace(workload, seed=1,
                                        instructions=_DRIFT_RECORDS)
        fast = Simulator(config)
        engine = FastForwardEngine(fast)
        assert engine.replay(iter(records), _DRIFT_RECORDS) == _DRIFT_RECORDS
        reference = Simulator(config)
        _reference_replay(reference, records)

        for level in ("l1", "l2"):
            assert _cache_sets(getattr(fast.hierarchy, level)) == (
                _cache_sets(getattr(reference.hierarchy, level))
            ), level
        if workload in ("health", "gs", "sis"):
            # Their stores evict dirty L1 lines: the write-back ran.
            assert any(
                dirty
                for cache_set in _cache_sets(fast.hierarchy.l2)
                for __, dirty in cache_set
            )
        fast_bp = fast.core.branch_predictor
        reference_bp = reference.core.branch_predictor
        assert fast_bp._counters == reference_bp._counters
        assert fast_bp._history == reference_bp._history

        # The golden model's L1 holds the same blocks in the same LRU
        # order and counts the same misses.
        l1 = config.l1_data
        golden = GoldenCache(l1.size_bytes, l1.block_size, l1.associativity)
        for record in records:
            if record.kind in (InstrKind.LOAD, InstrKind.STORE):
                golden.access(record.addr)
        assert [
            [block for block, __ in cache_set]
            for cache_set in _cache_sets(fast.hierarchy.l1)
        ] == golden._sets
        assert engine.totals["l1_misses"] == run_golden(
            config, records
        ).l1_misses

    def test_sampled_run_on_no_prefetch_machine(self):
        # The baseline machine has no prefetcher: warming must degrade
        # to pure cache/branch warmth without errors.
        records = cached_workload_trace("health", seed=1,
                                        instructions=60_000)
        config = baseline_config().with_sampling(period=20_000,
                                                 window=1_000, warmup=500)
        result = Simulator(config).run(records, max_instructions=60_000)
        assert result.extra["windows"] == 3.0
        assert result.ipc > 0
