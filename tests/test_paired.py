"""Matched-pair sampled comparisons (repro.sampling.paired).

The paired driver exists to kill the cold-start bias of sampled
*comparisons*: every leg must see the identical record sequence and the
identical window grid, so the fast-forward bias cancels in the
per-window IPC ratios.  These tests pin that contract — grid identity
and determinism — plus the acceptance property pairing exists for:
at trace scale the paired relative-IPC error beats the classic unpaired
absolute error on the workload where window placement hurts most
(health).  Sampled snapshot/resume identity is pinned in
``tests/test_sampling.py``.
"""

import pytest

from repro.config import SimConfig
from repro.errors import SimulationError
from repro.sampling import run_paired
from repro.sim.presets import baseline_config, psb_config
from repro.sim.simulator import Simulator
from repro.workloads import cached_workload_trace


def _sampled(config: SimConfig, period=40_000, window=1_000, warmup=500):
    return config.with_sampling(period=period, window=window, warmup=warmup)


def _health(instructions=120_000):
    return cached_workload_trace("health", seed=1, instructions=instructions)


class TestSharedGrid:
    def test_every_leg_measures_the_same_windows(self):
        paired = run_paired(
            {"base": _sampled(baseline_config()),
             "psb": _sampled(psb_config())},
            _health(),
            max_instructions=120_000,
            baseline="base",
        )
        base_rows = paired.window_rows["base"]
        psb_rows = paired.window_rows["psb"]
        assert len(base_rows) == len(psb_rows) == 3
        for left, right in zip(base_rows, psb_rows):
            # Same placement, same measured span — only timing differs.
            assert left["start_record"] == right["start_record"]
            assert left["instructions"] == right["instructions"]
        assert paired.pairs["psb"].windows == 3
        assert paired.pairs["psb"].rel_ipc > 0

    def test_mismatched_sampling_shapes_are_rejected(self):
        with pytest.raises(SimulationError,
                           match="share one SamplingConfig"):
            run_paired(
                {"base": _sampled(baseline_config()),
                 "psb": _sampled(psb_config(), window=2_000)},
                _health(),
                max_instructions=120_000,
            )

    def test_single_leg_is_rejected(self):
        with pytest.raises(SimulationError, match="at least two"):
            run_paired(
                {"psb": _sampled(psb_config())},
                _health(),
                max_instructions=120_000,
            )


class TestDeterminism:
    def test_paired_run_is_bit_identical_across_invocations(self):
        def go():
            return run_paired(
                {"base": _sampled(baseline_config()),
                 "psb": _sampled(psb_config())},
                _health(),
                max_instructions=120_000,
                baseline="base",
            )

        first, second = go(), go()
        assert first.to_dict() == second.to_dict()


@pytest.mark.slow
class TestAcceptance1M:
    def test_paired_error_beats_unpaired_on_health(self):
        """The tentpole acceptance property, at trace scale.

        On health the classic sampled estimate lands its windows on a
        phase the whole trace does not represent; pairing the legs on
        one grid cancels the shared bias.  The paired relative-IPC
        error must land within the benchmark gate (5%) and strictly
        beat the classic absolute error.
        """
        instructions = 1_000_000
        records = cached_workload_trace(
            "health", seed=1, instructions=instructions
        )
        det_psb = Simulator(psb_config()).run(
            records, max_instructions=instructions
        )
        det_base = Simulator(baseline_config()).run(
            records, max_instructions=instructions
        )
        unpaired = Simulator(
            psb_config().with_sampling(
                period=50_000, window=1_000, warmup=500
            )
        ).run(records, max_instructions=instructions)
        paired = run_paired(
            {
                "base": baseline_config().with_sampling(
                    period=50_000, window=4_000, warmup=1_000
                ),
                "psb": psb_config().with_sampling(
                    period=50_000, window=4_000, warmup=1_000
                ),
            },
            records,
            max_instructions=instructions,
            baseline="base",
        )
        unpaired_err = abs(unpaired.ipc - det_psb.ipc) / det_psb.ipc
        det_rel = det_psb.ipc / det_base.ipc
        paired_err = (
            abs(paired.pairs["psb"].rel_ipc - det_rel) / det_rel
        )
        assert paired_err <= 0.05
        assert paired_err < unpaired_err
