"""Campaign progress tracking (``repro.obs.progress``)."""

import pytest

from repro.obs.progress import CampaignProgress
from repro.runner import CampaignRunner, FaultSpec, RunSpec, WorkloadSpec
from repro.sim import baseline_config


def _outcome(run_id, ok=True, elapsed=2.0, resumed=False):
    from repro.runner.campaign import RunOutcome

    return RunOutcome(
        run_id=run_id,
        status="ok" if ok else "failed",
        attempts=1,
        error_kind=None if ok else "SimulationError",
        resumed=resumed,
        elapsed_seconds=elapsed,
    )


class TestTallies:
    def test_counts_and_in_flight(self):
        progress = CampaignProgress(clock=lambda: 0.0)
        progress.begin(4, workers=2)
        progress.point_started("a")
        progress.point_started("b")
        assert progress.in_flight == {"a", "b"}
        progress.point_finished(_outcome("a"))
        progress.point_finished(_outcome("b", ok=False))
        assert progress.done == 2
        assert progress.failed == 1
        assert progress.in_flight == set()
        assert progress.remaining == 2
        snapshot = progress.snapshot()
        assert snapshot["done"] == 2 and snapshot["failed"] == 1
        assert snapshot["elapsed"] == {"a": 2.0, "b": 2.0}

    def test_eta_spreads_over_workers(self):
        progress = CampaignProgress(clock=lambda: 0.0)
        progress.begin(6, workers=2)
        progress.point_finished(_outcome("a", elapsed=4.0))
        progress.point_finished(_outcome("b", elapsed=2.0))
        # avg 3s x 4 remaining / 2 workers
        assert progress.eta_seconds() == pytest.approx(6.0)

    def test_eta_excludes_resumed_points(self):
        progress = CampaignProgress(clock=lambda: 0.0)
        progress.begin(3)
        progress.point_finished(_outcome("free", elapsed=0.0, resumed=True))
        assert progress.eta_seconds() is None  # nothing actually executed
        progress.point_finished(_outcome("real", elapsed=5.0))
        assert progress.eta_seconds() == pytest.approx(5.0)
        assert progress.resumed == 1

    def test_emit_lines(self):
        lines = []
        progress = CampaignProgress(emit=lines.append, clock=lambda: 0.0)
        progress.begin(2, workers=2)
        progress.point_started("a")
        progress.point_finished(_outcome("a", elapsed=1.25))
        progress.finish("complete")
        assert lines[0].startswith("[1/2] a: ok in 1.2s")
        assert "campaign complete: 1 ok, 0 failed" in lines[1]

    def test_failed_line_names_the_kind(self):
        lines = []
        progress = CampaignProgress(emit=lines.append, clock=lambda: 0.0)
        progress.begin(1)
        progress.point_finished(_outcome("bad", ok=False))
        assert "FAILED (SimulationError)" in lines[0]

    def test_poisoned_points_are_tallied_and_named(self):
        from repro.runner.campaign import RunOutcome

        poisoned = RunOutcome(
            run_id="cursed",
            status="poisoned",
            attempts=3,
            error_kind="WorkerPoisonedError",
            elapsed_seconds=1.0,
        )
        lines = []
        progress = CampaignProgress(emit=lines.append, clock=lambda: 0.0)
        progress.begin(2)
        progress.point_finished(poisoned)
        progress.point_finished(_outcome("bad", ok=False))
        # Poisoned is a subset of failed, surfaced separately.
        assert progress.failed == 2
        assert progress.poisoned == 1
        assert "POISONED (WorkerPoisonedError)" in lines[0]
        snapshot = progress.snapshot()
        assert snapshot["poisoned"] == 1
        progress.finish("complete")
        assert "(1 poisoned)" in lines[-1]


class TestRunnerIntegration:
    def _specs(self):
        return [
            RunSpec(
                run_id=run_id,
                config=baseline_config(),
                trace=WorkloadSpec("health", seed=1),
                max_instructions=1_000,
                warmup_instructions=200,
                faults=faults,
            )
            for run_id, faults in [
                ("good", None),
                ("bad", FaultSpec(corrupt_at=50)),
            ]
        ]

    def test_serial_campaign_drives_the_hooks(self):
        lines = []
        progress = CampaignProgress(emit=lines.append)
        CampaignRunner(isolation="inline", progress=progress).run(
            self._specs()
        )
        assert progress.total == 2
        assert progress.done == 2
        assert progress.failed == 1
        assert progress.in_flight == set()
        assert len(lines) == 3  # two points + the finish line
        assert "campaign complete: 1 ok, 1 failed" in lines[-1]

    def test_parallel_campaign_drives_the_hooks(self):
        progress = CampaignProgress()
        CampaignRunner(
            workers=2, isolation="process", progress=progress
        ).run(self._specs())
        assert progress.done == 2
        assert progress.failed == 1
        assert progress.in_flight == set()
        assert set(progress.elapsed) == {"good", "bad"}
