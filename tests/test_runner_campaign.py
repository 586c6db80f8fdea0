"""End-to-end campaign tests under real process isolation.

These spawn worker processes and (in the acceptance test) wait out a
real wall-clock timeout, so the long ones carry the ``slow`` marker:
deselect locally with ``-m "not slow"``.
"""

import itertools
import json
import os

import pytest

from repro.runner import (
    CHECKPOINT_NAME,
    MANIFEST_NAME,
    CampaignRunner,
    FaultSpec,
    RunSpec,
    TraceFileSpec,
    WorkloadSpec,
    corrupt_trace_file,
)
from repro.sim import baseline_config, psb_config, stride_config
from repro.trace.io import save_trace
from repro.workloads import get_workload

INSTRUCTIONS = 1_000
WARMUP = 200


def _workload_spec(run_id, config, faults=None):
    return RunSpec(
        run_id=run_id,
        config=config,
        trace=WorkloadSpec("health", seed=1),
        max_instructions=INSTRUCTIONS,
        warmup_instructions=WARMUP,
        faults=faults,
    )


def _campaign_specs(tmp_path):
    """Three healthy points plus a crash, a hang, and a corrupt trace."""
    trace_path = str(tmp_path / "corrupt.trace")
    save_trace(
        trace_path,
        itertools.islice(get_workload("health", seed=1), INSTRUCTIONS + 200),
    )
    corrupt_trace_file(trace_path, line_number=400)
    return [
        _workload_spec("health/base", baseline_config()),
        _workload_spec("health/stride", stride_config()),
        _workload_spec(
            "health/crash", baseline_config(), faults=FaultSpec(crash_at=100)
        ),
        _workload_spec(
            "health/hang", baseline_config(),
            faults=FaultSpec(hang_at=100, hang_seconds=60.0),
        ),
        RunSpec(
            run_id="health/corrupt",
            config=baseline_config(),
            trace=TraceFileSpec(trace_path),
            max_instructions=INSTRUCTIONS,
            warmup_instructions=WARMUP,
        ),
        _workload_spec("health/psb", psb_config()),
    ]


def test_process_isolation_matches_inline_result(tmp_path):
    spec = _workload_spec("health/base", baseline_config())
    inline, isolated = (
        CampaignRunner(isolation=isolation).run([spec]).results[spec.run_id]
        for isolation in ("inline", "process")
    )
    assert isolated.ipc == inline.ipc
    assert isolated.cycles == inline.cycles


@pytest.mark.slow
def test_acceptance_faulted_campaign_completes_and_resumes(
    tmp_path, finish_hook
):
    """The ISSUE acceptance campaign.

    A sweep with an injected crash, an injected hang (caught by the
    timeout), and a genuinely corrupt trace record must (1) complete
    every remaining point, (2) record the three failures in the
    manifest, and (3) after a simulated interrupt, resume from the
    checkpoint without re-running completed points and with identical
    results to an uninterrupted run.
    """
    specs = _campaign_specs(tmp_path)

    def runner(campaign_dir, **kwargs):
        return CampaignRunner(
            campaign_dir,
            timeout=2.5,
            retries=0,
            on_error="skip",
            isolation="process",
            **kwargs,
        )

    # --- uninterrupted reference run --------------------------------
    ref_dir = str(tmp_path / "reference")
    reference = runner(ref_dir).run(specs)
    assert set(reference.results) == {
        "health/base", "health/stride", "health/psb",
    }
    failure_kinds = {
        run_id: outcome.error_kind
        for run_id, outcome in reference.failures.items()
    }
    assert failure_kinds == {
        "health/crash": "SimulationError",
        "health/hang": "RunTimeoutError",
        "health/corrupt": "TraceFormatError",
    }
    manifest = json.load(open(os.path.join(ref_dir, MANIFEST_NAME)))
    assert manifest["status"] == "complete"
    assert manifest["ok"] == 3 and manifest["failed"] == 3
    assert {f["run_id"]: f["kind"] for f in manifest["failures"]} == failure_kinds

    # --- interrupted run: die after three terminal outcomes ----------
    camp_dir = str(tmp_path / "campaign")
    seen = []

    def interrupt_after_three(outcome):
        seen.append(outcome.run_id)
        if len(seen) == 3:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        runner(
            camp_dir, progress=finish_hook(interrupt_after_three)
        ).run(specs)
    assert json.load(open(os.path.join(camp_dir, MANIFEST_NAME)))[
        "status"
    ] == "interrupted"

    # --- resume: completed points skipped, results identical ---------
    resumed = runner(camp_dir, resume=True).run(specs)
    assert resumed.resumed == seen  # exactly the pre-interrupt points
    checkpoint_lines = [
        line
        for line in open(os.path.join(camp_dir, CHECKPOINT_NAME))
        if line.strip()
    ]
    assert len(checkpoint_lines) == len(specs)  # no point ran twice

    assert {
        run_id: (result.ipc, result.cycles)
        for run_id, result in resumed.results.items()
    } == {
        run_id: (result.ipc, result.cycles)
        for run_id, result in reference.results.items()
    }
    assert {
        run_id: outcome.error_kind
        for run_id, outcome in resumed.failures.items()
    } == failure_kinds
    final_manifest = json.load(open(os.path.join(camp_dir, MANIFEST_NAME)))
    assert final_manifest["status"] == "complete"
    assert final_manifest["failed"] == 3


class TestCheckpointReplayEdgeCases:
    """Replay must shrug off the artifacts a hostile shutdown leaves."""

    def _two_specs(self):
        return [
            _workload_spec("health/base", baseline_config()),
            _workload_spec("health/stride", stride_config()),
        ]

    def test_duplicate_run_id_last_entry_wins(self, tmp_path):
        from repro.runner.checkpoint import encode_entry

        camp = str(tmp_path / "camp")
        specs = self._two_specs()
        first = CampaignRunner(camp, isolation="process").run(specs)
        # Re-append the base point's entry with doctored bookkeeping —
        # the kind of duplicate a crash between append and manifest
        # write can produce.  Replay must take the *last* entry.
        path = os.path.join(camp, CHECKPOINT_NAME)
        entry = json.loads(open(path).readline())
        entry.pop("crc32", None)
        entry["attempts"] = 7
        with open(path, "a") as handle:
            handle.write(encode_entry(entry) + "\n")
        resumed = CampaignRunner(
            camp, isolation="process", resume=True
        ).run(specs)
        assert set(resumed.resumed) == {"health/base", "health/stride"}
        assert resumed.outcomes["health/base"].attempts == 7
        assert resumed.results["health/base"].ipc == first.results[
            "health/base"
        ].ipc

    def test_torn_trailing_line_resumes_under_parallel_workers(
        self, tmp_path
    ):
        camp = str(tmp_path / "camp")
        specs = self._two_specs()
        reference = CampaignRunner(camp, isolation="process").run(specs)
        # Tear the final entry mid-line, as a kill -9 mid-append would.
        path = os.path.join(camp, CHECKPOINT_NAME)
        lines = open(path).read().splitlines()
        torn_id = json.loads(lines[-1])["run_id"]
        with open(path, "w") as handle:
            handle.write("\n".join(lines[:-1]) + "\n" + lines[-1][:37])
        resumed = CampaignRunner(
            camp, workers=2, isolation="process", resume=True
        ).run(specs)
        # The torn point re-ran; the intact one replayed; numbers match.
        assert torn_id not in resumed.resumed
        assert len(resumed.resumed) == 1
        assert {
            run_id: result.ipc for run_id, result in resumed.results.items()
        } == {
            run_id: result.ipc
            for run_id, result in reference.results.items()
        }
        final = json.load(open(os.path.join(camp, MANIFEST_NAME)))
        assert final["status"] == "complete"
        assert final["ok"] == 2

    def test_fingerprint_mismatch_reruns_under_parallel_workers(
        self, tmp_path
    ):
        camp = str(tmp_path / "camp")
        CampaignRunner(camp, isolation="process").run(self._two_specs())
        changed = [
            RunSpec(
                run_id="health/base",
                config=baseline_config(),
                trace=WorkloadSpec("health", seed=1),
                max_instructions=INSTRUCTIONS + 500,
                warmup_instructions=WARMUP,
            ),
            _workload_spec("health/stride", stride_config()),
        ]
        resumed = CampaignRunner(
            camp, workers=2, isolation="process", resume=True
        ).run(changed)
        assert resumed.resumed == ["health/stride"]
        assert resumed.results["health/base"].instructions == (
            INSTRUCTIONS + 500 - WARMUP
        )


@pytest.mark.slow
def test_timeout_kills_hung_worker_and_campaign_continues(tmp_path):
    specs = [
        _workload_spec(
            "hang", baseline_config(),
            faults=FaultSpec(hang_at=50, hang_seconds=60.0),
        ),
        _workload_spec("after", baseline_config()),
    ]
    campaign = CampaignRunner(
        str(tmp_path / "camp"), timeout=2.0, retries=0, isolation="process"
    ).run(specs)
    assert campaign.failures["hang"].error_kind == "RunTimeoutError"
    assert "after" in campaign.results  # the campaign outlived the hang


class TestGracefulStop:
    """request_stop(): finish the current point, write a resumable
    ``interrupted`` manifest, and hand the rest to the next run."""

    def _four_specs(self):
        return [
            _workload_spec("health/base", baseline_config()),
            _workload_spec("health/stride", stride_config()),
            _workload_spec("health/psb", psb_config()),
            _workload_spec(
                "health/base-again", baseline_config()
            ),
        ]

    def test_serial_stop_interrupts_and_resume_completes(
        self, tmp_path, finish_hook
    ):
        camp = str(tmp_path / "camp")
        specs = self._four_specs()
        runner = CampaignRunner(
            camp, isolation="inline",
            progress=finish_hook(lambda outcome: runner.request_stop()),
        )
        result = runner.run(specs)
        assert runner.stop_requested
        assert result.manifest["status"] == "interrupted"
        assert len(result.outcomes) == 1

        resumed = CampaignRunner(camp, isolation="inline", resume=True).run(
            specs
        )
        assert resumed.manifest["status"] == "complete"
        assert resumed.manifest["ok"] == 4
        assert resumed.manifest["resumed_from_checkpoint"] == 1
        # No point ran twice: one checkpoint line per run_id.
        with open(os.path.join(camp, CHECKPOINT_NAME)) as handle:
            run_ids = [
                json.loads(line)["run_id"]
                for line in handle
                if line.strip()
            ]
        assert sorted(run_ids) == sorted(set(run_ids))

    def test_stale_stop_request_does_not_leak_into_a_new_run(self, tmp_path):
        # run() clears any stop requested before it started, so a
        # runner reused after an interruption executes normally.
        camp = str(tmp_path / "camp")
        runner = CampaignRunner(camp, isolation="inline")
        runner.request_stop()
        result = runner.run(self._four_specs())
        assert not runner.stop_requested
        assert result.manifest["status"] == "complete"
        assert result.manifest["ok"] == 4

    def test_sigterm_with_handle_signals_stops_gracefully(
        self, tmp_path, finish_hook
    ):
        import signal as _signal

        camp = str(tmp_path / "camp")
        runner = CampaignRunner(
            camp, isolation="inline", handle_signals=True,
            progress=finish_hook(
                lambda outcome: os.kill(os.getpid(), _signal.SIGTERM)
            ),
        )
        before = _signal.getsignal(_signal.SIGTERM)
        result = runner.run(self._four_specs())
        # The signal stopped the campaign instead of killing the
        # process, and the previous handler is back in place.
        assert result.manifest["status"] == "interrupted"
        assert len(result.outcomes) == 1
        assert _signal.getsignal(_signal.SIGTERM) is before

    @pytest.mark.slow
    def test_parallel_stop_interrupts_and_resume_completes(
        self, tmp_path, finish_hook
    ):
        camp = str(tmp_path / "camp")
        specs = self._four_specs()
        runner = CampaignRunner(
            camp, isolation="process", workers=2,
            progress=finish_hook(lambda outcome: runner.request_stop()),
        )
        result = runner.run(specs)
        assert result.manifest["status"] == "interrupted"
        assert len(result.outcomes) < 4

        resumed = CampaignRunner(camp, isolation="inline", resume=True).run(
            specs
        )
        assert resumed.manifest["status"] == "complete"
        assert resumed.manifest["ok"] == 4
        with open(os.path.join(camp, CHECKPOINT_NAME)) as handle:
            run_ids = [
                json.loads(line)["run_id"]
                for line in handle
                if line.strip()
            ]
        assert sorted(run_ids) == sorted(set(run_ids))
