"""The stored stream-buffer occupancy index and its invariant.

Each :class:`~repro.streambuf.buffer.StreamBuffer` stores its occupied
entry count and the controller stores one block -> occupied-entry count
map shared by all buffers; both change only inside the entries' own
transitions.  ``check_stream_buffers`` recomputes them from the entries
under the rule ``streambuf.index``.
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
from repro.streambuf.buffer import EntryState
from repro.streambuf.controller import SequentialPredictor, StreamBufferController

BLOCK = 32


def _live_controller(**overrides):
    """A controller with one allocated stream holding predictions."""
    config = StreamBufferConfig(
        allocation=AllocationPolicy.ALWAYS,
        scheduling=SchedulingPolicy.ROUND_ROBIN,
        **overrides,
    )
    controller = StreamBufferController(config, SequentialPredictor(BLOCK), BLOCK)
    controller.attach(MemoryHierarchy(SimConfig()))
    controller.on_l1_miss(0x100, 0x8000, 0, sb_hit=False)
    for cycle in range(1, 3):
        controller.tick(cycle)
    check_stream_buffers(controller, 2)
    buffer = next(b for b in controller.buffers if b.allocated)
    return controller, buffer


class TestIndexTracksEntries:
    def test_counts_follow_predictions_and_hits(self):
        controller, buffer = _live_controller()
        assert buffer.occupied_count == buffer.occupied_entries == 2
        assert controller.block_counts == {
            0x8000 + BLOCK: 1, 0x8000 + 2 * BLOCK: 1
        }
        assert controller.probe(0x8000 + BLOCK, 400) is not None
        assert buffer.occupied_count == 1
        assert 0x8000 + BLOCK not in controller.block_counts

    def test_overlapping_streams_count_twice(self):
        controller, _ = _live_controller(check_overlap=False)
        controller.on_l1_miss(0x200, 0x8000, 3, sb_hit=False)
        controller.tick(4)
        assert controller.block_counts[0x8000 + BLOCK] == 2
        check_stream_buffers(controller, 4)


class TestIndexInvariant:
    def test_direct_state_write_trips_index(self):
        controller, buffer = _live_controller()
        entry = next(e for e in buffer.entries if not e.occupied)
        # Written directly, as runner/faults.py corrupts state: the
        # entry's transitions never ran, so the index is stale.
        entry.state = EntryState.READY
        entry.block = 0xDEAD_0000
        with pytest.raises(IntegrityError) as excinfo:
            check_stream_buffers(controller, 2)
        assert excinfo.value.invariant == "streambuf.index"

    def test_stale_block_map_trips_index(self):
        controller, _ = _live_controller()
        controller.block_counts[0xBEEF_0000] = 1
        with pytest.raises(IntegrityError) as excinfo:
            check_stream_buffers(controller, 2)
        assert excinfo.value.invariant == "streambuf.index"
