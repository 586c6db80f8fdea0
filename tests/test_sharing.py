"""Tests for the shared stream-buffer entry pool (beyond the paper).

Covers :mod:`repro.streambuf.sharing` end to end:

- policy unit behaviour: free-credit grants, the steal margin,
  credence's binary trust classes, youngest-entry eviction;
- the fixed policy is bit-identical to the default configuration on
  all six paper workloads, event-driven and stepped;
- pool-conservation invariants catch seeded corruption;
- snapshot/resume is bit-identical under every policy;
- the reallocation path returns a dead stream's entries to the pool
  *before* the new stream claims the buffer (regression);
- the adversarial ``many_streams`` workload: a pooled policy beats the
  fixed partition (the acceptance criterion for the sharing work).
"""

import dataclasses

import pytest

from repro.config import (
    AllocationPolicy,
    BufferSharing,
    InvariantLevel,
    SchedulingPolicy,
    SimConfig,
    StreamBufferConfig,
)
from repro.errors import IntegrityError
from repro.integrity import resume_run
from repro.integrity.invariants import check_stream_buffers
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim import psb_config
from repro.sim.simulator import Simulator, simulate
from repro.streambuf.buffer import EntryState, StreamBufferEntry
from repro.streambuf.controller import SequentialPredictor, StreamBufferController
from repro.streambuf.sharing import (
    _STEAL_MARGIN,
    CredenceSharing,
    EntryPool,
    FixedSharing,
    HarmonicSharing,
    make_sharing_policy,
)
from repro.workloads import PAPER_WORKLOADS, get_workload

BLOCK = 32
POLICIES = [BufferSharing.FIXED, BufferSharing.HARMONIC, BufferSharing.CREDENCE]


def _controller(sharing=BufferSharing.HARMONIC, **overrides):
    config = StreamBufferConfig(
        allocation=AllocationPolicy.ALWAYS,
        scheduling=SchedulingPolicy.ROUND_ROBIN,
        sharing=sharing,
        **overrides,
    )
    controller = StreamBufferController(
        config, SequentialPredictor(BLOCK), BLOCK
    )
    controller.attach(MemoryHierarchy(SimConfig()))
    return controller


def _allocate(controller, pc, addr, cycle=0):
    """Allocate a stream and return its buffer."""
    before = controller.allocations
    controller.on_l1_miss(pc, addr, cycle, sb_hit=False)
    assert controller.allocations == before + 1
    for buffer in controller.buffers:
        if buffer.allocated and buffer.state.pc == pc:
            return buffer
    raise AssertionError("allocation did not land in any buffer")


def _grant(controller, buffer, count, cycle=0):
    """Pull ``count`` entries from the pool into ``buffer``."""
    for _ in range(count):
        entry = controller.sharing.take_entry(buffer, cycle)
        assert entry is not None
        entry.hold_prediction(0x1000 + 64 * len(buffer.entries), cycle)


class TestEntryPool:
    def test_free_tracks_allocated(self):
        pool = EntryPool(8)
        assert pool.free == 8
        pool.allocated = 3
        assert pool.free == 5

    def test_reset_stats_keeps_occupancy(self):
        pool = EntryPool(8)
        pool.allocated = 4
        pool.acquires = 9
        pool.steals = 2
        pool.reset_stats()
        assert pool.allocated == 4
        assert pool.acquires == 0 and pool.steals == 0


class TestPolicyFactory:
    def test_dispatch(self):
        fixed = StreamBufferConfig(sharing=BufferSharing.FIXED)
        assert isinstance(make_sharing_policy(fixed), FixedSharing)
        harm = StreamBufferConfig(sharing=BufferSharing.HARMONIC)
        assert isinstance(make_sharing_policy(harm), HarmonicSharing)
        cred = StreamBufferConfig(sharing=BufferSharing.CREDENCE)
        assert isinstance(make_sharing_policy(cred), CredenceSharing)

    def test_fixed_has_no_pool(self):
        controller = _controller(BufferSharing.FIXED)
        assert controller.pool is None
        for buffer in controller.buffers:
            assert len(buffer.entries) == controller.config.entries_per_buffer

    def test_pooled_buffers_start_empty(self):
        controller = _controller(BufferSharing.HARMONIC)
        assert controller.pool is not None
        assert controller.pool.size == controller.config.pool_size
        for buffer in controller.buffers:
            assert len(buffer.entries) == 0


class TestPooledGrants:
    def test_free_credit_grant(self):
        controller = _controller(pool_entries=4)
        buffer = _allocate(controller, 0x100, 0x8000)
        entry = controller.sharing.take_entry(buffer, cycle=1)
        assert entry is not None and entry in buffer.entries
        assert controller.pool.allocated == 1
        assert controller.pool.acquires == 1
        assert controller.pool.steals == 0

    def test_release_entry_returns_credit(self):
        controller = _controller(pool_entries=4)
        buffer = _allocate(controller, 0x100, 0x8000)
        entry = controller.sharing.take_entry(buffer, cycle=1)
        controller.sharing.release_entry(buffer, entry)
        assert controller.pool.allocated == 0
        assert controller.pool.releases == 1
        assert entry not in buffer.entries

    def test_release_stream_returns_whole_queue(self):
        controller = _controller(pool_entries=4)
        buffer = _allocate(controller, 0x100, 0x8000)
        _grant(controller, buffer, 3)
        controller.sharing.release_stream(buffer)
        assert len(buffer.entries) == 0
        assert controller.pool.allocated == 0
        assert controller.pool.releases == 3

    def test_wants_prediction_false_without_entries_or_victims(self):
        controller = _controller(pool_entries=2)
        buffer = _allocate(controller, 0x100, 0x8000)
        _grant(controller, buffer, 2)  # soaks the whole pool itself
        # The only possible victim is the requester: no port interest.
        assert not controller.sharing.prediction_filter(epoch=5)(buffer)


class TestStealMargin:
    def test_steal_requires_margin(self):
        controller = _controller(pool_entries=4)
        rich = _allocate(controller, 0x100, 0x8000)
        poor = _allocate(controller, 0x200, 0x20000)
        _grant(controller, rich, 4)  # pool now full, all with `rich`
        # 4 >= 0 + margin: the steal is allowed and rebalances.
        entry = controller.sharing.take_entry(poor, cycle=10)
        assert entry is not None and entry in poor.entries
        assert controller.pool.steals == 1
        assert len(rich.entries) == 3 and len(poor.entries) == 1

    def test_steal_denied_inside_margin(self):
        controller = _controller(pool_entries=4)
        rich = _allocate(controller, 0x100, 0x8000)
        poor = _allocate(controller, 0x200, 0x20000)
        _grant(controller, rich, 3)
        _grant(controller, poor, 1)
        # 3 < 1 + margin: stealing would just slosh entries back and
        # forth (the livelock the margin exists to break).
        entry = controller.sharing.take_entry(poor, cycle=10)
        assert entry is None
        assert controller.pool.denials == 1
        assert controller.pool.steals == 0

    def test_steal_takes_youngest_and_clears_it(self):
        controller = _controller(pool_entries=4)
        rich = _allocate(controller, 0x100, 0x8000)
        poor = _allocate(controller, 0x200, 0x20000)
        for cycle in (1, 2, 3, 4):
            entry = controller.sharing.take_entry(rich, cycle)
            entry.hold_prediction(0x1000 * cycle, cycle)
        youngest_block = 0x1000 * 4
        assert all(e.occupied for e in rich.entries)
        stolen = controller.sharing.take_entry(poor, cycle=10)
        assert stolen is not None
        assert stolen.state == EntryState.FREE  # handed over cleared
        assert youngest_block not in [e.block for e in rich.entries]

    def test_stolen_live_prefetch_counts_discarded(self):
        controller = _controller(pool_entries=4)
        rich = _allocate(controller, 0x100, 0x8000)
        poor = _allocate(controller, 0x200, 0x20000)
        for cycle in (1, 2, 3, 4):
            entry = controller.sharing.take_entry(rich, cycle)
            entry.hold_prediction(0x1000 * cycle, cycle)
        rich.entries[-1].mark_in_flight(ready_cycle=50)  # the youngest
        before = controller.prefetches_discarded
        controller.sharing.take_entry(poor, cycle=10)
        assert controller.pool.evicted_inflight == 1
        assert controller.prefetches_discarded == before + 1


class TestCredenceTrust:
    def _pair(self):
        controller = _controller(BufferSharing.CREDENCE, pool_entries=4)
        a = _allocate(controller, 0x100, 0x8000)
        b = _allocate(controller, 0x200, 0x20000)
        return controller, a, b

    def test_advice_bit_is_upper_half(self):
        controller, a, _ = self._pair()
        half = controller.config.priority_max // 2
        a.priority.set(half)
        assert controller.sharing._trusted(a)
        a.priority.set(half - 1)
        assert not controller.sharing._trusted(a)

    def test_trusted_steals_from_untrusted_without_margin(self):
        controller, rich, poor = self._pair()
        rich.priority.set(0)  # untrusted
        poor.priority.set(controller.config.priority_max)  # trusted
        _grant(controller, rich, 3)
        _grant(controller, poor, 1)
        # Within one class harmonic would deny (3 < 1 + margin); across
        # trust classes the advice bit overrides queue lengths.
        entry = controller.sharing.take_entry(poor, cycle=10)
        assert entry is not None
        assert controller.pool.steals == 1

    def test_untrusted_never_evicts_trusted(self):
        controller, rich, poor = self._pair()
        rich.priority.set(controller.config.priority_max)  # trusted
        poor.priority.set(0)  # untrusted
        _grant(controller, rich, 4)
        entry = controller.sharing.take_entry(poor, cycle=10)
        assert entry is None
        assert controller.pool.denials == 1

    def test_same_class_falls_back_to_margin_rule(self):
        controller, rich, poor = self._pair()
        rich.priority.set(controller.config.priority_max)
        poor.priority.set(controller.config.priority_max)
        _grant(controller, rich, 4)
        assert controller.sharing.take_entry(poor, cycle=10) is not None
        assert controller.pool.steals == 1  # 4 >= 0 + margin
        _grant(controller, poor, 1)  # now 3 vs 2 via free credit? pool full
        # rich=3, poor=2: inside the margin, denied.
        assert controller.sharing.take_entry(poor, cycle=11) is None
        assert controller.pool.denials == 1


class TestReallocationReturnsEntriesFirst:
    """Regression: stream death must free pool credit *before* the new
    stream claims the buffer, so the same cycle's prediction pass can
    spend it (the freed entries were invisible for a full allocation
    round otherwise)."""

    def test_release_precedes_allocate(self):
        controller = _controller(pool_entries=4, num_buffers=1)
        buffer = _allocate(controller, 0x100, 0x8000)
        _grant(controller, buffer, 4)
        assert controller.pool.free == 0
        seen = []
        original = buffer.allocate

        def spying_allocate(state, cycle, priority=0):
            seen.append(controller.pool.allocated)
            return original(state, cycle, priority=priority)

        buffer.allocate = spying_allocate
        controller.on_l1_miss(0x900, 0x90000, cycle=20, sb_hit=False)
        assert seen == [0], "entries still held when the new stream claimed"
        assert controller.pool.free == 4
        assert controller.pool.releases == 4
        # The freed credit is immediately spendable.
        assert controller.sharing.take_entry(buffer, cycle=20) is not None
        assert controller.pool.acquires == 5

    def test_dead_stream_blocks_are_not_duplicates(self):
        controller = _controller(pool_entries=4, num_buffers=1)
        buffer = _allocate(controller, 0x100, 0x8000)
        for cycle in range(1, 5):
            controller.tick(cycle)
        held = [e.block for e in buffer.entries if e.occupied]
        assert 0x8000 + BLOCK in held
        # A new stream takes the only buffer and predicts a block the
        # dead stream held: reallocation must have forgotten it.
        _allocate(controller, 0x200, 0x8000, cycle=10)
        controller.tick(11)
        assert controller.duplicate_predictions == 0
        assert [e.block for e in buffer.entries if e.occupied] == [
            0x8000 + BLOCK
        ]


class TestPoolInvariants:
    def _live_controller(self):
        controller = _controller(pool_entries=8)
        rich = _allocate(controller, 0x100, 0x8000)
        _grant(controller, rich, 3)
        check_stream_buffers(controller)  # clean before corruption
        return controller, rich

    def test_clean_state_passes(self):
        self._live_controller()

    def test_conservation_catches_count_drift(self):
        controller, _ = self._live_controller()
        controller.pool.allocated += 1
        with pytest.raises(IntegrityError) as exc:
            check_stream_buffers(controller)
        assert "pool.conservation" in str(exc.value)

    def test_ownership_catches_shared_entry(self):
        controller, rich = self._live_controller()
        other = controller.buffers[1]
        other.entries.append(rich.entries[0])
        controller.pool.allocated += 1
        with pytest.raises(IntegrityError) as exc:
            check_stream_buffers(controller)
        assert "pool.ownership" in str(exc.value)

    def test_capacity_catches_oversubscription(self):
        controller, rich = self._live_controller()
        overrun = controller.pool.size - controller.pool.allocated + 1
        for _ in range(overrun):
            rich.entries.append(StreamBufferEntry())
        controller.pool.allocated += overrun
        with pytest.raises(IntegrityError) as exc:
            check_stream_buffers(controller)
        assert "pool.capacity" in str(exc.value)

    @pytest.mark.parametrize(
        "sharing", [BufferSharing.HARMONIC, BufferSharing.CREDENCE]
    )
    def test_full_invariants_clean_on_many_streams(self, sharing):
        config = psb_config().with_sharing(sharing).with_invariants(
            InvariantLevel.FULL
        )
        result = simulate(
            config,
            get_workload("many_streams", seed=1),
            max_instructions=4_000,
        )
        assert result.instructions == 4_000


class TestFixedBitIdentity:
    """`BufferSharing.FIXED` IS the pre-sharing simulator: explicit
    fixed sharing must not perturb a single counter on any paper
    workload, in either drive mode."""

    @pytest.mark.parametrize("workload", PAPER_WORKLOADS)
    @pytest.mark.parametrize("event", [True, False], ids=["event", "stepped"])
    def test_fixed_matches_default(self, workload, event):
        base = psb_config().with_event_driven(event)
        explicit = base.with_sharing(BufferSharing.FIXED)
        trace = lambda: get_workload(workload, seed=1)
        reference = simulate(base, trace(), max_instructions=4_000)
        fixed = simulate(explicit, trace(), max_instructions=4_000)
        for field in dataclasses.fields(type(reference)):
            if field.name == "extra":
                continue
            assert getattr(fixed, field.name) == getattr(
                reference, field.name
            ), field.name


class TestSnapshotResume:
    @pytest.mark.parametrize("sharing", POLICIES, ids=lambda s: s.value)
    def test_resume_is_bit_identical(self, sharing):
        config = psb_config().with_sharing(sharing)
        trace = lambda: get_workload("many_streams", seed=1)
        reference = simulate(
            config, trace(), max_instructions=6_000, label="ref"
        )
        snapshots = []
        Simulator(config).run(
            trace(),
            max_instructions=6_000,
            label="ref",
            snapshot_every=2_000,
            snapshot_sink=snapshots.append,
        )
        assert snapshots
        middle = snapshots[len(snapshots) // 2]
        resumed = resume_run(middle, trace())
        for field in dataclasses.fields(type(reference)):
            if field.name == "extra":
                continue
            assert getattr(resumed, field.name) == getattr(
                reference, field.name
            ), field.name

    @pytest.mark.parametrize(
        "sharing", [BufferSharing.HARMONIC, BufferSharing.CREDENCE]
    )
    def test_pool_state_survives_snapshot(self, sharing):
        config = psb_config().with_sharing(sharing)
        snapshots = []
        Simulator(config).run(
            get_workload("many_streams", seed=1),
            max_instructions=6_000,
            snapshot_every=3_000,
            snapshot_sink=snapshots.append,
        )
        simulator, _state = snapshots[-1].restore()
        controller = simulator.controller
        assert controller.pool is not None
        owned = sum(len(b.entries) for b in controller.buffers)
        assert owned == controller.pool.allocated
        check_stream_buffers(controller)


class TestManyStreamsAcceptance:
    """The adversarial workload: sharing must beat the fixed partition
    (ISSUE acceptance; the full table lives in docs/buffer_sharing.md)."""

    def _ipc(self, sharing):
        config = psb_config().with_sharing(sharing)
        result = simulate(
            config,
            get_workload("many_streams", seed=1),
            max_instructions=30_000,
            warmup_instructions=8_000,
        )
        return result.ipc

    def test_pooled_policies_beat_fixed(self):
        fixed = self._ipc(BufferSharing.FIXED)
        harmonic = self._ipc(BufferSharing.HARMONIC)
        credence = self._ipc(BufferSharing.CREDENCE)
        assert harmonic > fixed * 1.02
        assert credence > fixed * 1.02
