"""End-to-end tests of the simulation integrity layer.

Covers the three pillars together with the machinery they plug into:

- runtime invariant checking at ``full`` level stays silent on every
  registered workload, and every corrupt-state fault recipe trips the
  invariant it was designed to violate;
- the golden functional model agrees with the timing simulator, and
  tampered results are rejected;
- a run snapshotted mid-trace and resumed finishes bit-identical to an
  uninterrupted run, including through the campaign runner's
  crash/timeout recovery path.
"""

import dataclasses

import pytest

from repro.cli import main as cli_main
from repro.config import InvariantLevel
from repro.errors import IntegrityError
from repro.integrity import (
    SimSnapshot,
    golden_check,
    resume_run,
    run_golden,
)
from repro.runner import (
    CORRUPT_STATE_TARGETS,
    CampaignRunner,
    FaultSpec,
    RunSpec,
    WorkloadSpec,
    execute_spec,
)
from repro.sim import baseline_config, psb_config, simulate
from repro.sim.simulator import Simulator
from repro.workloads import get_workload, workload_names

INSTRUCTIONS = 5_000


def _full(config):
    return config.with_invariants(InvariantLevel.FULL)


def _trace(name="health", seed=1):
    return get_workload(name, seed=seed)


# ----------------------------------------------------------------------
# Pillar 1: runtime invariant checking
# ----------------------------------------------------------------------


class TestInvariantChecking:
    @pytest.mark.parametrize("workload", workload_names())
    def test_full_invariants_clean_on_every_workload(self, workload):
        result = simulate(
            _full(psb_config()),
            _trace(workload),
            max_instructions=INSTRUCTIONS,
            warmup_instructions=INSTRUCTIONS // 3,
            label=workload,
        )
        assert result.instructions > 0
        assert result.extra["invariant_checks"] > 0

    def test_cheap_level_samples_fewer_checks(self):
        def checks(level):
            result = simulate(
                psb_config().with_invariants(level),
                _trace(),
                max_instructions=INSTRUCTIONS,
                label="lvl",
            )
            return result.extra["invariant_checks"]

        full = checks(InvariantLevel.FULL)
        cheap = checks(InvariantLevel.CHEAP)
        assert 0 < cheap < full

    def test_off_level_runs_no_checks(self):
        result = simulate(
            psb_config(), _trace(), max_instructions=INSTRUCTIONS, label="off"
        )
        assert result.extra["invariant_checks"] == 0

    @pytest.mark.parametrize(
        "target, invariant_prefix",
        [
            ("mshr", "l1.mshr."),
            ("bus", "l1_l2_bus."),
            ("streambuf", "streambuf[0].stale"),
            ("counter", "streambuf[0].priority.bounds"),
            ("stats", "stats.consistency"),
        ],
    )
    def test_corrupt_state_trips_named_invariant(self, target, invariant_prefix):
        assert target in CORRUPT_STATE_TARGETS
        spec = RunSpec(
            run_id=f"corrupt/{target}",
            config=_full(psb_config()),
            trace=WorkloadSpec("health", seed=1),
            max_instructions=INSTRUCTIONS,
            faults=FaultSpec(corrupt_state_at=500, corrupt_state_target=target),
        )
        with pytest.raises(IntegrityError) as excinfo:
            execute_spec(spec)
        error = excinfo.value
        assert error.invariant.startswith(invariant_prefix)
        assert error.retryable is False
        assert error.state_dump  # the dump names the offending component

    def test_corruption_invisible_with_invariants_off(self):
        spec = RunSpec(
            run_id="corrupt/unchecked",
            config=psb_config(),
            trace=WorkloadSpec("health", seed=1),
            max_instructions=INSTRUCTIONS,
            faults=FaultSpec(corrupt_state_at=500, corrupt_state_target="stats"),
        )
        result = execute_spec(spec)  # completes, silently wrong: the point
        assert result.instructions > 0


# ----------------------------------------------------------------------
# Pillar 2: golden-model differential validation
# ----------------------------------------------------------------------


class TestGoldenModel:
    @pytest.mark.parametrize("workload", workload_names())
    def test_timed_model_matches_golden(self, workload):
        config = psb_config()
        result = simulate(
            config,
            _trace(workload),
            max_instructions=INSTRUCTIONS,
            warmup_instructions=0,
            label=workload,
        )
        golden = run_golden(
            config, _trace(workload), max_instructions=INSTRUCTIONS
        )
        report = golden_check(result, golden)
        assert report.ok, report.violations

    def test_tampered_counts_are_rejected(self):
        config = baseline_config()
        result = simulate(
            config,
            _trace(),
            max_instructions=INSTRUCTIONS,
            warmup_instructions=0,
            label="tampered",
        )
        golden = run_golden(config, _trace(), max_instructions=INSTRUCTIONS)
        result.extra["loads"] += 7  # silent corruption of a raw counter
        report = golden_check(result, golden)
        assert not report.ok
        assert any("loads" in v for v in report.violations)
        with pytest.raises(IntegrityError) as excinfo:
            report.verify()
        assert excinfo.value.invariant == "golden.differential"

    def test_warmup_runs_cannot_be_golden_checked(self):
        config = baseline_config()
        result = simulate(
            config,
            _trace(),
            max_instructions=INSTRUCTIONS,
            warmup_instructions=1_000,
            label="warm",
        )
        golden = run_golden(config, _trace(), max_instructions=INSTRUCTIONS)
        with pytest.raises(IntegrityError) as excinfo:
            golden_check(result, golden, warmup_instructions=1_000)
        assert excinfo.value.invariant == "golden.precondition"

    def test_campaign_golden_check_passes(self, tmp_path):
        spec = RunSpec(
            run_id="golden/psb",
            config=psb_config(),
            trace=WorkloadSpec("health", seed=1),
            max_instructions=INSTRUCTIONS,
            golden_check=True,
        )
        result = execute_spec(spec)
        assert "golden_miss_rate" in result.extra


# ----------------------------------------------------------------------
# Pillar 3: deterministic snapshot/replay
# ----------------------------------------------------------------------


def _assert_results_identical(resumed, reference, ignore_extra=("resumed_from_cycle",)):
    for field in dataclasses.fields(type(reference)):
        if field.name == "extra":
            continue
        assert getattr(resumed, field.name) == getattr(
            reference, field.name
        ), field.name
    for key, value in reference.extra.items():
        if key in ignore_extra:
            continue
        assert resumed.extra.get(key) == value, key


class TestSnapshotReplay:
    def test_resume_is_bit_identical(self):
        config = psb_config()
        reference = simulate(
            config, _trace(), max_instructions=INSTRUCTIONS, label="ref"
        )

        snapshots = []
        Simulator(config).run(
            _trace(),
            max_instructions=INSTRUCTIONS,
            label="ref",
            snapshot_every=2_000,
            snapshot_sink=snapshots.append,
        )
        assert len(snapshots) >= 2
        middle = snapshots[len(snapshots) // 2]
        assert 0 < middle.cycle < reference.cycles

        resumed = resume_run(middle, _trace())
        assert resumed.extra["resumed_from_cycle"] == float(middle.cycle)
        _assert_results_identical(resumed, reference)

    def test_cheap_check_count_ignores_snapshots_and_resume(self):
        # Snapshot stops are not checker stops: the number of sweeps is
        # the same with or without snapshots, and after a resume.
        config = psb_config().with_invariants(InvariantLevel.CHEAP)
        plain = simulate(config, _trace(), max_instructions=INSTRUCTIONS)
        snapshots = []
        snapped = Simulator(config).run(
            _trace(),
            max_instructions=INSTRUCTIONS,
            snapshot_every=2_000,
            snapshot_sink=snapshots.append,
        )
        resumed = resume_run(snapshots[len(snapshots) // 2], _trace())
        counts = [
            result.extra["invariant_checks"]
            for result in (plain, snapped, resumed)
        ]
        assert counts[0] > 0
        assert counts == [counts[0]] * 3

    def test_snapshot_roundtrips_through_disk(self, tmp_path):
        config = psb_config()
        snapshots = []
        Simulator(config).run(
            _trace(),
            max_instructions=INSTRUCTIONS,
            label="disk",
            snapshot_every=5_000,
            snapshot_sink=snapshots.append,
        )
        path = str(tmp_path / "run.snap")
        snapshots[0].save(path)
        loaded = SimSnapshot.load(path)
        assert loaded.cycle == snapshots[0].cycle
        assert loaded.records_consumed == snapshots[0].records_consumed

    @pytest.mark.parametrize(
        "config",
        [
            psb_config(),
            # Snapshots land at period boundaries; the first one (after
            # record 1_150) precedes the crash at record 3_000.
            psb_config().with_sampling(period=2_000, window=200, warmup=100),
        ],
        ids=["detailed", "sampled"],
    )
    def test_crashed_campaign_point_resumes_from_snapshot(
        self, tmp_path, config
    ):
        reference = simulate(
            config, _trace(), max_instructions=INSTRUCTIONS, label="crash/psb"
        )
        spec = RunSpec(
            run_id="crash/psb",
            config=config,
            trace=WorkloadSpec("health", seed=1),
            max_instructions=INSTRUCTIONS,
            faults=FaultSpec(crash_at=3_000, crash_attempts=1),
        )
        runner = CampaignRunner(
            str(tmp_path),
            retries=1,
            isolation="inline",
            snapshot_every=2_000,
        )
        campaign = runner.run([spec])
        outcome = campaign.outcomes["crash/psb"]
        assert outcome.ok
        assert outcome.attempts == 2
        resumed = outcome.result
        assert resumed.extra["resumed_from_cycle"] > 0
        _assert_results_identical(resumed, reference)
        # The seed snapshot is deleted once the point completes.
        assert not list((tmp_path / "snapshots").glob("*.snap"))

    @pytest.mark.slow
    def test_timed_out_point_resumes_from_snapshot(self, tmp_path):
        spec = RunSpec(
            run_id="hang/psb",
            config=psb_config(),
            trace=WorkloadSpec("health", seed=1),
            max_instructions=INSTRUCTIONS,
            faults=FaultSpec(
                hang_at=3_000, hang_seconds=60.0, hang_attempts=1
            ),
        )
        runner = CampaignRunner(
            str(tmp_path),
            timeout=15.0,
            retries=1,
            isolation="process",
            snapshot_every=2_000,
            backoff_base=0.0,
        )
        campaign = runner.run([spec])
        outcome = campaign.outcomes["hang/psb"]
        assert outcome.ok, outcome.error_message
        assert outcome.attempts == 2
        assert outcome.result.extra["resumed_from_cycle"] > 0


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------


class TestIntegrityCli:
    def test_run_with_full_invariants(self, capsys):
        exit_code = cli_main(
            ["run", "health", "--instructions", "3000", "--invariants", "full"]
        )
        assert exit_code == 0
        assert "invariant checks" in capsys.readouterr().out

    def test_check_command_passes(self, capsys):
        exit_code = cli_main(
            ["check", "health", "--machine", "psb", "--instructions", "3000"]
        )
        assert exit_code == 0
        assert "golden check [OK]" in capsys.readouterr().out

    def test_check_command_rejects_warmup(self, capsys):
        exit_code = cli_main(
            ["check", "health", "--instructions", "3000", "--warmup", "500"]
        )
        assert exit_code == 1
        assert "warmup" in capsys.readouterr().err
