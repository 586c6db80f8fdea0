"""The standing predictor-port decision and its invariant.

After a buffer's prediction is dropped as a duplicate, nothing the
priority pick reads has changed, so the controller keeps that buffer on
the predictor port for the next tick instead of re-arbitrating.
``check_stream_buffers`` compares a standing decision against a fresh
pick under the rule ``streambuf.port``.  A snapshot pickled before the
decision existed resumes through the class default, ``ARBITRATE``.
"""

import dataclasses
import itertools
import pickle

import pytest

from repro.cli import MACHINES
from repro.config import (
    AllocationPolicy,
    InvariantLevel,
    SchedulingPolicy,
    SimConfig,
    StreamBufferConfig,
)
from repro.errors import IntegrityError
from repro.integrity.invariants import check_stream_buffers
from repro.integrity.snapshot import SimSnapshot, resume_run
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim import Simulator
from repro.streambuf.controller import (
    ARBITRATE,
    SequentialPredictor,
    StreamBufferController,
)
from repro.workloads import get_workload

BLOCK = 32


def _duplicate_streak(scheduling=SchedulingPolicy.PRIORITY):
    """Two sequential streams over the same blocks: the second one's
    predictions are all duplicates of the first one's full buffer."""
    config = StreamBufferConfig(
        allocation=AllocationPolicy.ALWAYS, scheduling=scheduling
    )
    controller = StreamBufferController(config, SequentialPredictor(BLOCK), BLOCK)
    controller.attach(MemoryHierarchy(SimConfig()))
    controller.on_l1_miss(0x100, 0x8000, 0, sb_hit=False)
    for cycle in range(1, 5):
        controller.tick(cycle)
    controller.on_l1_miss(0x200, 0x8000, 5, sb_hit=False)
    controller.tick(6)
    first, second = controller.buffers[:2]
    assert first.occupied_count == len(first.entries)
    assert controller.duplicate_predictions == 1
    return controller, first, second


def _port_violation(controller, cycle):
    with pytest.raises(IntegrityError) as excinfo:
        check_stream_buffers(controller, cycle)
    return excinfo.value.invariant


class TestStandingWinner:
    def test_duplicate_keeps_the_winner_without_arbitration(self):
        controller, _, second = _duplicate_streak()
        assert controller.predictor_port is second
        scheduler = controller.scheduler

        def arbitrate(buffers, eligible):
            raise AssertionError("re-arbitrated after a dropped duplicate")

        scheduler.pick_for_prediction = arbitrate
        grants = scheduler.prediction_grants
        for cycle in range(7, 10):
            check_stream_buffers(controller, cycle - 1)
            controller.tick(cycle)
        assert controller.duplicate_predictions == 4
        assert scheduler.prediction_grants == grants + 3

    def test_a_fresh_prediction_arbitrates_again(self):
        controller, _, second = _duplicate_streak()
        for cycle in range(7, 11):
            controller.tick(cycle)
        # The fifth block is new: it takes an entry and ends the streak.
        assert controller.duplicate_predictions == 4
        assert second.occupied_count == 1
        assert controller.predictor_port is ARBITRATE
        check_stream_buffers(controller, 10)

    def test_round_robin_arbitrates_every_cycle(self):
        controller, _, _ = _duplicate_streak(SchedulingPolicy.ROUND_ROBIN)
        assert controller.predictor_port is ARBITRATE

    def test_probe_hit_resets_the_decision(self):
        controller, first, _ = _duplicate_streak()
        assert controller.probe(0x8000 + BLOCK, 1_000) is not None
        assert controller.predictor_port is ARBITRATE
        check_stream_buffers(controller, 1_000)
        controller.tick(1_001)
        assert first.occupied_count == len(first.entries)


class TestPortInvariant:
    def test_standing_winner_restored_after_a_probe_hit(self):
        controller, _, second = _duplicate_streak()
        assert controller.probe(0x8000 + BLOCK, 1_000) is not None
        # The hit bumped the first buffer's priority and freed an
        # entry in it, so a fresh pick names the first buffer.
        controller.predictor_port = second
        assert _port_violation(controller, 1_000) == "streambuf.port"

    def test_standing_winner_under_round_robin(self):
        controller, _, second = _duplicate_streak(SchedulingPolicy.ROUND_ROBIN)
        controller.predictor_port = second
        assert _port_violation(controller, 6) == "streambuf.port"

    def test_idle_port_while_a_buffer_is_eligible(self):
        controller, _, _ = _duplicate_streak()
        controller.predictor_port = None
        assert _port_violation(controller, 6) == "streambuf.port"


def _without_port_decision(snapshot):
    """``snapshot`` as code from before the standing decision pickled
    it: the controller holds ``_predict_skip`` and no ``predictor_port``.
    Returns the rewritten snapshot and whether its port was idle."""
    simulator, state = snapshot.restore()
    controller = simulator.hierarchy.prefetcher
    idle = controller.predictor_port is None
    del controller.predictor_port
    controller._predict_skip = idle
    payload = pickle.dumps((simulator, state), protocol=pickle.HIGHEST_PROTOCOL)
    rewritten = SimSnapshot(
        payload, snapshot.cycle, snapshot.records_consumed, snapshot.label,
        mode=snapshot.mode,
    )
    return rewritten, idle


class TestSnapshotWithoutPortDecision:
    def test_resumes_to_the_uninterrupted_result(self):
        count = 2_000
        records = list(itertools.islice(get_workload("sis", seed=1), count))
        # Full invariants: streambuf.port sweeps the resumed controller.
        config = MACHINES["psb"]().with_invariants(InvariantLevel.FULL)

        def run(**kwargs):
            return Simulator(config).run(
                iter(records), max_instructions=count, **kwargs
            )

        snapshots = []
        full = run(snapshot_every=600, snapshot_sink=snapshots.append)
        idle = 0
        for snapshot in snapshots:
            rewritten, was_idle = _without_port_decision(snapshot)
            idle += was_idle
            resumed = resume_run(rewritten, iter(records))
            resumed.extra.pop("resumed_from_cycle")
            assert dataclasses.asdict(resumed) == dataclasses.asdict(full)
        # An idle port was pickled as ``_predict_skip = True``: the
        # resumed controller re-arbitrates to the same idle port.
        assert idle > 0
