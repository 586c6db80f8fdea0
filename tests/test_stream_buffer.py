"""Unit tests for stream buffers and their entries."""

from repro.predictors.base import StreamState
from repro.streambuf.buffer import EntryState, StreamBuffer, StreamBufferEntry
from repro.streambuf.sharing import FixedSharing


def _buffer(index=0, entries=4, priority_max=12):
    return StreamBuffer(index, entries, priority_max)


class TestEntryLifecycle:
    def test_initially_free(self):
        entry = StreamBufferEntry()
        assert entry.state == EntryState.FREE
        assert not entry.occupied

    def test_prediction_then_flight_then_ready(self):
        entry = StreamBufferEntry()
        entry.hold_prediction(0x1000, cycle=5)
        assert entry.state == EntryState.PREDICTED
        entry.mark_in_flight(ready_cycle=40)
        assert entry.state == EntryState.IN_FLIGHT
        entry.refresh(39)
        assert entry.state == EntryState.IN_FLIGHT
        entry.refresh(40)
        assert entry.state == EntryState.READY

    def test_clear(self):
        entry = StreamBufferEntry()
        entry.hold_prediction(0x1000, cycle=5)
        entry.clear()
        assert entry.state == EntryState.FREE
        assert entry.block == 0


class TestStreamBuffer:
    def test_allocation_resets_entries(self):
        buffer = _buffer()
        buffer.entries[0].hold_prediction(0x2000, 1)
        buffer.allocate(StreamState(0x100, 0x1000), cycle=10, priority=5)
        assert buffer.allocated
        assert buffer.occupied_entries == 0
        assert int(buffer.priority) == 5
        assert buffer.allocations == 1

    def test_free_entry_ordering(self):
        buffer = _buffer(entries=2)
        buffer.allocate(StreamState(0x100, 0x1000), cycle=0)
        first = buffer.free_entry()
        first.hold_prediction(0x1000, 0)
        second = buffer.free_entry()
        assert second is not first
        second.hold_prediction(0x1020, 1)
        assert buffer.free_entry() is None

    def test_prefetchable_entry_is_oldest_prediction(self):
        buffer = _buffer()
        buffer.allocate(StreamState(0x100, 0x1000), cycle=0)
        late = buffer.entries[0]
        early = buffer.entries[1]
        late.hold_prediction(0x2000, cycle=9)
        early.hold_prediction(0x1000, cycle=3)
        assert buffer.prefetchable_entry() is early

    def test_find_block(self):
        buffer = _buffer()
        buffer.allocate(StreamState(0x100, 0x1000), cycle=0)
        buffer.entries[2].hold_prediction(0x3000, 0)
        assert buffer.find_block(0x3000) is buffer.entries[2]
        assert buffer.find_block(0x4000) is None

    def test_wants_prediction_requires_allocation_and_space(self):
        buffer = _buffer(entries=1)
        wants_prediction = FixedSharing().prediction_filter(epoch=0)
        assert not wants_prediction(buffer)
        buffer.allocate(StreamState(0x100, 0x1000), cycle=0)
        assert wants_prediction(buffer)
        buffer.entries[0].hold_prediction(0x1000, 0)
        assert not wants_prediction(buffer)

    def test_exhaustion_retries_after_epoch_advance(self):
        buffer = _buffer()
        buffer.allocate(StreamState(0x100, 0x1000), cycle=0)
        buffer.mark_exhausted(epoch=3)
        assert not FixedSharing().prediction_filter(epoch=3)(buffer)
        assert FixedSharing().prediction_filter(epoch=4)(buffer)

    def test_note_hit_bumps_priority_and_recency(self):
        buffer = _buffer()
        buffer.allocate(StreamState(0x100, 0x1000), cycle=0, priority=4)
        buffer.note_hit(cycle=50, bonus=2)
        assert int(buffer.priority) == 6
        assert buffer.last_use_cycle == 50
        assert buffer.hits == 1

    def test_priority_saturates(self):
        buffer = _buffer(priority_max=12)
        buffer.allocate(StreamState(0x100, 0x1000), cycle=0, priority=11)
        buffer.note_hit(cycle=1, bonus=2)
        assert int(buffer.priority) == 12

    def test_deallocate(self):
        buffer = _buffer()
        buffer.allocate(StreamState(0x100, 0x1000), cycle=0)
        buffer.deallocate()
        assert not buffer.allocated
        assert buffer.state is None
