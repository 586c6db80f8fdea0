"""The standing predictor-port decision and its invariant.

After a buffer's prediction is dropped as a duplicate, nothing the
priority pick reads has changed, so the controller keeps that buffer on
the predictor port for the next tick instead of re-arbitrating.
``check_stream_buffers`` compares a standing decision against a fresh
pick under the rule ``streambuf.port``.
"""

import pytest

from repro.config import (
    AllocationPolicy,
    SchedulingPolicy,
    SimConfig,
    StreamBufferConfig,
)
from repro.errors import IntegrityError
from repro.integrity.invariants import check_stream_buffers
from repro.memory.hierarchy import MemoryHierarchy
from repro.streambuf.controller import (
    ARBITRATE,
    SequentialPredictor,
    StreamBufferController,
)

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
