"""Unit tests for the campaign runner (inline isolation for speed).

Process-isolation and the end-to-end acceptance campaign live in
``test_runner_campaign.py``.
"""

import json
import os

import pytest

from repro.errors import (
    ConfigError,
    SimulationError,
    TraceFormatError,
)
from repro.runner import (
    CHECKPOINT_NAME,
    MANIFEST_NAME,
    CampaignRunner,
    FaultSpec,
    RunSpec,
    TraceFileSpec,
    WorkloadSpec,
    execute_spec,
)
from repro.runner import campaign as campaign_module
from repro.sim import baseline_config, psb_config, simulate
from repro.workloads import get_workload

INSTRUCTIONS = 1_500
WARMUP = 300


def _spec(run_id="point", faults=None, trace=None, instructions=INSTRUCTIONS):
    return RunSpec(
        run_id=run_id,
        config=baseline_config(),
        trace=trace if trace is not None else WorkloadSpec("health", seed=1),
        max_instructions=instructions,
        warmup_instructions=WARMUP,
        faults=faults,
    )


def _inline(**kwargs):
    kwargs.setdefault("isolation", "inline")
    kwargs.setdefault("backoff_base", 0.0)
    return CampaignRunner(**kwargs)


def _assert_slept_out(sleeps, backoffs):
    """The scheduler sleeps only the time left to a retry's eligibility:
    each sleep is at most its backoff and within 50 ms of it."""
    assert len(sleeps) == len(backoffs), sleeps
    for slept, backoff in zip(sleeps, backoffs):
        assert backoff - 0.05 <= slept <= backoff, (sleeps, backoffs)


class TestRunOne:
    """A one-point campaign behaves like a plain function call."""

    def test_matches_direct_simulate(self):
        direct = simulate(
            baseline_config(), get_workload("health", seed=1),
            max_instructions=INSTRUCTIONS, warmup_instructions=WARMUP,
        )
        via_runner = _inline().run([_spec()]).results["point"]
        assert via_runner.ipc == direct.ipc
        assert via_runner.cycles == direct.cycles

    def test_raises_on_failure(self):
        with pytest.raises(SimulationError):
            _inline(on_error="fail").run(
                [_spec(faults=FaultSpec(crash_at=10))]
            )


class TestRetryPolicy:
    def test_transient_crash_recovers(self):
        sleeps = []
        runner = _inline(retries=2, backoff_base=0.5, sleep=sleeps.append)
        outcome = runner.run(
            [_spec(faults=FaultSpec(crash_at=10, crash_attempts=1))]
        ).outcomes["point"]
        assert outcome.ok
        assert outcome.attempts == 2
        _assert_slept_out(sleeps, [0.5])  # one backoff, then the heal

    def test_backoff_grows_exponentially_and_caps(self):
        sleeps = []
        runner = _inline(
            retries=4, backoff_base=1.0, backoff_max=3.0, sleep=sleeps.append
        )
        campaign = runner.run([_spec(faults=FaultSpec(crash_at=10))])
        outcome = campaign.failures["point"]
        assert outcome.attempts == 5
        _assert_slept_out(sleeps, [1.0, 2.0, 3.0, 3.0])

    def test_non_retryable_fails_immediately(self):
        sleeps = []
        runner = _inline(retries=3, sleep=sleeps.append)
        outcome = runner.run(
            [_spec(faults=FaultSpec(corrupt_at=10))]
        ).failures["point"]
        assert outcome.attempts == 1
        assert outcome.error_kind == "TraceFormatError"
        assert sleeps == []

    def test_crash_is_classified_retryable_simulation_error(self):
        outcome = _inline(retries=1).run(
            [_spec(faults=FaultSpec(crash_at=10))]
        ).failures["point"]
        assert outcome.error_kind == "SimulationError"
        assert outcome.attempts == 2

    def test_backing_off_point_lets_the_next_one_finish_first(
        self, finish_hook
    ):
        # An inline retry waits on the scheduler's eligibility heap, not
        # in a blocking loop, so the next point runs in the meantime.
        seen = []
        campaign = _inline(
            retries=1, backoff_base=5.0, sleep=lambda delay: None,
            progress=finish_hook(lambda o: seen.append(o.run_id)),
        ).run(
            [
                _spec("flaky", faults=FaultSpec(crash_at=10, crash_attempts=1)),
                _spec("steady"),
            ]
        )
        assert seen == ["steady", "flaky"]
        assert campaign.outcomes["flaky"].attempts == 2
        assert list(campaign.outcomes) == ["flaky", "steady"]  # spec order

    def test_stop_during_backoff_drops_the_retry_until_resume(
        self, tmp_path
    ):
        d = str(tmp_path / "camp")
        specs = [
            _spec("flaky", faults=FaultSpec(crash_at=10, crash_attempts=1)),
            _spec("steady"),
        ]
        reference = _inline(retries=1).run(specs)
        runner = _inline(
            campaign_dir=d, retries=1, backoff_base=5.0,
            sleep=lambda delay: runner.request_stop(),
        )
        stopped = runner.run(specs)
        assert stopped.manifest["status"] == "interrupted"
        with open(os.path.join(d, CHECKPOINT_NAME)) as handle:
            checkpointed = [json.loads(line)["run_id"] for line in handle]
        assert checkpointed == ["steady"]  # the backing-off point is not

        resumed = _inline(campaign_dir=d, retries=1, resume=True).run(specs)
        assert resumed.manifest["status"] == "complete"
        assert resumed.resumed == ["steady"]
        assert {
            run_id: (result.ipc, result.cycles)
            for run_id, result in resumed.results.items()
        } == {
            run_id: (result.ipc, result.cycles)
            for run_id, result in reference.results.items()
        }


class TestDegradationPolicy:
    def _specs(self):
        return [
            _spec("a"),
            _spec("bad", faults=FaultSpec(corrupt_at=5)),
            _spec("c"),
        ]

    def test_skip_records_and_continues(self):
        campaign = _inline(on_error="skip").run(self._specs())
        assert set(campaign.results) == {"a", "c"}
        assert set(campaign.failures) == {"bad"}

    def test_fail_fast_raises_and_stops(self):
        with pytest.raises(TraceFormatError):
            _inline(on_error="fail").run(self._specs())

    def test_fail_fast_still_notifies_on_outcome(self, finish_hook):
        # Regression: the fail-fast break used to run before the
        # terminal callback, so the *failing* outcome was never
        # delivered to it.
        seen = []
        with pytest.raises(TraceFormatError):
            _inline(
                on_error="fail",
                progress=finish_hook(lambda o: seen.append((o.run_id, o.ok))),
            ).run(self._specs())
        assert seen == [("a", True), ("bad", False)]

    def test_duplicate_run_ids_rejected(self):
        with pytest.raises(ConfigError):
            _inline().run([_spec("x"), _spec("x")])


class TestRunnerValidation:
    def test_bad_on_error(self):
        with pytest.raises(ConfigError):
            CampaignRunner(on_error="explode")

    def test_bad_isolation(self):
        with pytest.raises(ConfigError):
            CampaignRunner(isolation="container")

    def test_negative_retries(self):
        with pytest.raises(ConfigError):
            CampaignRunner(retries=-1)

    def test_timeout_requires_process_isolation(self):
        with pytest.raises(ConfigError):
            CampaignRunner(timeout=5, isolation="inline")

    def test_resume_requires_campaign_dir(self):
        with pytest.raises(ConfigError):
            CampaignRunner(resume=True)


class TestCheckpointing:
    def test_checkpoint_and_manifest_written(self, tmp_path):
        d = str(tmp_path / "camp")
        campaign = _inline(campaign_dir=d).run(
            [_spec("a"), _spec("bad", faults=FaultSpec(corrupt_at=5))]
        )
        lines = [
            json.loads(line)
            for line in open(os.path.join(d, CHECKPOINT_NAME))
        ]
        assert [entry["run_id"] for entry in lines] == ["a", "bad"]
        assert lines[0]["status"] == "ok"
        assert lines[0]["result"]["ipc"] == campaign.results["a"].ipc
        assert lines[1]["status"] == "failed"
        assert lines[1]["error"]["kind"] == "TraceFormatError"

        manifest = json.load(open(os.path.join(d, MANIFEST_NAME)))
        assert manifest["status"] == "complete"
        assert manifest["ok"] == 1 and manifest["failed"] == 1
        assert manifest["failures"][0]["run_id"] == "bad"

    def test_fresh_run_clears_stale_checkpoint(self, tmp_path):
        d = str(tmp_path / "camp")
        _inline(campaign_dir=d).run([_spec("a")])
        _inline(campaign_dir=d).run([_spec("b")])  # no resume: start over
        entries = [
            json.loads(line)
            for line in open(os.path.join(d, CHECKPOINT_NAME))
        ]
        assert [entry["run_id"] for entry in entries] == ["b"]


@pytest.fixture
def executed(monkeypatch):
    """Count the inline attempts of each point, keyed by ``run_id``."""
    counter = {}

    def counting(spec, *args):
        counter[spec.run_id] = counter.get(spec.run_id, 0) + 1
        return execute_spec(spec, *args)

    monkeypatch.setattr(campaign_module, "execute_spec", counting)
    return counter


class TestResume:
    def test_interrupt_then_resume_skips_completed(
        self, tmp_path, finish_hook, executed
    ):
        d = str(tmp_path / "camp")
        specs = [_spec(run_id) for run_id in "abc"]
        uninterrupted = _inline(campaign_dir=str(tmp_path / "ref")).run(specs)
        executed.clear()

        def interrupt_after_first(outcome):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            _inline(
                campaign_dir=d, progress=finish_hook(interrupt_after_first)
            ).run(specs)
        assert executed == {"a": 1}

        manifest = json.load(open(os.path.join(d, MANIFEST_NAME)))
        assert manifest["status"] == "interrupted"

        resumed = _inline(campaign_dir=d, resume=True).run(specs)
        assert executed == {"a": 1, "b": 1, "c": 1}  # a was NOT re-run
        assert resumed.resumed == ["a"]
        assert {
            run_id: result.ipc for run_id, result in resumed.results.items()
        } == {
            run_id: result.ipc
            for run_id, result in uninterrupted.results.items()
        }
        assert json.load(open(os.path.join(d, MANIFEST_NAME)))[
            "resumed_from_checkpoint"
        ] == 1

    def test_changed_spec_invalidates_checkpoint(self, tmp_path):
        d = str(tmp_path / "camp")
        _inline(campaign_dir=d).run([_spec("a")])
        changed = _spec("a", instructions=INSTRUCTIONS + 500)
        campaign = _inline(campaign_dir=d, resume=True).run([changed])
        assert campaign.resumed == []  # fingerprint mismatch: re-ran

    def test_resumed_failures_are_not_retried(self, tmp_path):
        d = str(tmp_path / "camp")
        spec = _spec("bad", faults=FaultSpec(corrupt_at=5))
        _inline(campaign_dir=d).run([spec])
        campaign = _inline(campaign_dir=d, resume=True).run([spec])
        assert campaign.resumed == ["bad"]
        assert campaign.failures["bad"].error_kind == "TraceFormatError"

    def test_plain_spec_fingerprint_is_pinned(self):
        # Checkpoints written by earlier releases still resume.
        spec = RunSpec(
            "health/psb", psb_config(), WorkloadSpec("health", 1),
            max_instructions=20_000, warmup_instructions=5_000,
        )
        assert spec.fingerprint() == "2e5c1c4ae2d5c846"

    def test_trace_file_spec_fingerprint_is_pinned(self):
        # A trace-file point's checkpoints written by earlier releases
        # still resume too.
        spec = RunSpec(
            "trace/base", baseline_config(), TraceFileSpec("traces/health.rtb"),
            max_instructions=20_000, warmup_instructions=5_000,
        )
        assert spec.fingerprint() == "027b8e5555a481ad"


class TestDeclarativeTrace:
    """A point names its trace as data, so it crosses the process
    boundary and its fingerprint covers everything the run reads."""

    def test_callable_trace_is_refused(self):
        with pytest.raises(ConfigError, match="got function") as raised:
            _spec("factory", trace=lambda: get_workload("health", seed=1))
        assert raised.value.field == "RunSpec.trace"

    @pytest.mark.parametrize("instructions", [None, 0, -5])
    def test_unbounded_workload_point_is_refused(self, instructions):
        # A generator never runs dry, so such a point could never end.
        with pytest.raises(ConfigError) as raised:
            _spec("unbounded", instructions=instructions)
        assert raised.value.field == "RunSpec.max_instructions"

    def test_trace_file_point_takes_no_bound(self):
        # A trace file ends on its own.
        spec = RunSpec("file", baseline_config(), TraceFileSpec("t.rtb"))
        assert spec.max_instructions is None

    @pytest.mark.parametrize("instructions", [0, -5])
    def test_trace_file_bound_below_one_is_refused(self, instructions):
        # Such a point would run no instruction and report a result.
        with pytest.raises(ConfigError) as raised:
            RunSpec(
                "file", baseline_config(), TraceFileSpec("t.rtb"),
                max_instructions=instructions,
            )
        assert raised.value.field == "RunSpec.max_instructions"


class TestUnknownWorkload:
    """An unknown workload name fails its own point, once, as a
    :class:`~repro.errors.ConfigError`, whether or not the trace cache
    can be written, and the campaign's other points still run."""

    @pytest.mark.parametrize("cache_writable", [True, False],
                             ids=["cached", "generated"])
    def test_fails_once_as_config_error(
        self, tmp_path, monkeypatch, cache_writable
    ):
        if not cache_writable:
            # A cache directory under a regular file cannot be created,
            # so every attempt takes its records from the generator.
            blocker = tmp_path / "file"
            blocker.write_text("")
            monkeypatch.setenv("REPRO_TRACE_CACHE", str(blocker / "cache"))
        campaign = _inline(retries=2).run([
            _spec("health", instructions=2_000),
            _spec("quake", trace=WorkloadSpec("quake", seed=1),
                  instructions=2_000),
        ])
        assert campaign.outcomes["health"].ok
        outcome = campaign.failures["quake"]
        assert outcome.error_kind == "ConfigError"
        assert outcome.attempts == 1
        assert "unknown workload 'quake'" in outcome.error_message


class TestSnapshotCleanup:
    def test_success_removes_snapshot(self, tmp_path):
        d = str(tmp_path / "camp")
        campaign = _inline(campaign_dir=d, snapshot_every=50).run(
            [_spec("ok-point")]
        )
        assert campaign.outcomes["ok-point"].ok
        snapdir = os.path.join(d, "snapshots")
        assert os.path.isdir(snapdir)  # a snapshot was written mid-run
        assert os.listdir(snapdir) == []

    def test_terminal_failure_removes_snapshot(self, tmp_path):
        # Regression: only the success path cleaned up, so a terminally
        # failed point left its per-spec .snap behind — and a later
        # campaign reusing the fingerprint would silently fast-forward
        # from the dead attempt's state.
        d = str(tmp_path / "camp")
        campaign = _inline(campaign_dir=d, snapshot_every=50).run(
            [_spec("bad", faults=FaultSpec(corrupt_at=800))]
        )
        assert campaign.failures["bad"].error_kind == "TraceFormatError"
        snapdir = os.path.join(d, "snapshots")
        assert os.path.isdir(snapdir)  # a snapshot was written mid-run
        assert os.listdir(snapdir) == []


class TestPlainTraceError:
    """An attempt that raises a plain exception, not a taxonomy error."""

    @pytest.fixture(autouse=True)
    def _broken_point(self, monkeypatch):
        """The point named ``broken`` raises ``RuntimeError`` inline."""

        def execute(spec, *args):
            if spec.run_id == "broken":
                raise RuntimeError("boom")
            return execute_spec(spec, *args)

        monkeypatch.setattr(campaign_module, "execute_spec", execute)

    def test_fail_fast_raises_simulation_error(self):
        with pytest.raises(SimulationError, match="RuntimeError: boom"):
            _inline(on_error="fail").run([_spec("broken")])

    def test_skip_keeps_the_other_point(self, tmp_path):
        d = str(tmp_path / "camp")
        campaign = _inline(campaign_dir=d, on_error="skip").run(
            [_spec("broken"), _spec("fine")]
        )
        assert set(campaign.results) == {"fine"}
        assert campaign.failures["broken"].error_kind == "SimulationError"
        manifest = json.load(open(os.path.join(d, MANIFEST_NAME)))
        assert manifest["failed"] == 1
        assert manifest["ok"] == 1
