"""Property-based fuzzing of the stream-buffer controller.

Drives the controller with random miss streams and cycle advances,
under every sharing policy and with overlap checking on or off, and
checks structural invariants that must hold whatever the input:

- with overlap checking on, no two occupied entries (across all
  buffers) hold the same block;
- entry-state bookkeeping stays consistent;
- prefetches used never exceed prefetches issued;
- every buffer's priority stays inside its saturating range;
- every rule of :func:`check_stream_buffers`, including the pool laws,
  the stored occupancy index (``streambuf.index``) and the standing
  predictor-port decision (``streambuf.port``), after every tick: a
  winner stands only until the next tick, so a check per step would
  rarely see one.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    AllocationPolicy,
    BufferSharing,
    SchedulingPolicy,
    SimConfig,
    StreamBufferConfig,
)
from repro.integrity.invariants import check_stream_buffers
from repro.memory.hierarchy import MemoryHierarchy
from repro.predictors.sfm import StrideFilteredMarkovPredictor
from repro.streambuf.buffer import EntryState
from repro.streambuf.controller import SequentialPredictor, StreamBufferController

BLOCK = 32

#: A fuzz step: miss (pc index, block index, is store) or a number of
#: idle cycles.
_step = st.one_of(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=300),
        st.booleans(),
    ),
    st.integers(min_value=1, max_value=30),
)
_steps = st.lists(_step, max_size=120)
#: Long enough for streams to fill a pool, steal and be reallocated.
_long_steps = st.lists(_step, min_size=40, max_size=120)
#: Misses in a few blocks with short gaps: streams from different loads
#: overlap, so most predictions are dropped as duplicates.
_clustered_steps = st.lists(
    st.one_of(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=15),
            st.booleans(),
        ),
        st.integers(min_value=1, max_value=8),
    ),
    min_size=40,
    max_size=120,
)

_policies = st.sampled_from(
    [
        (AllocationPolicy.ALWAYS, SchedulingPolicy.ROUND_ROBIN),
        # Sequential streams from different loads overlap, so priority
        # winners stand through duplicate streaks.
        (AllocationPolicy.ALWAYS, SchedulingPolicy.PRIORITY),
        (AllocationPolicy.TWO_MISS, SchedulingPolicy.ROUND_ROBIN),
        (AllocationPolicy.CONFIDENCE, SchedulingPolicy.PRIORITY),
        (AllocationPolicy.CONFIDENCE, SchedulingPolicy.ROUND_ROBIN),
    ]
)

#: Stride-filtered Markov (the paper's) or sequential streaming, which
#: predicts on every free cycle and so keeps pools full and stealing.
_predictors = st.sampled_from(
    [StrideFilteredMarkovPredictor, lambda: SequentialPredictor(BLOCK)]
)

#: (sharing policy, pool entries): a small pool forces pooled steals.
_sharing = st.one_of(
    st.just((BufferSharing.FIXED, None)),
    st.tuples(
        st.sampled_from([BufferSharing.HARMONIC, BufferSharing.CREDENCE]),
        st.integers(min_value=2, max_value=12),
    ),
)


def _check_invariants(controller, cycle):
    check_stream_buffers(controller, cycle)
    check_overlap = controller.config.check_overlap
    seen_blocks = set()
    for buffer in controller.buffers:
        priority = int(buffer.priority)
        assert 0 <= priority <= buffer.priority.maximum
        for entry in buffer.entries:
            if entry.state == EntryState.FREE:
                continue
            assert buffer.allocated
            assert entry.block % BLOCK == 0
            if check_overlap:
                assert entry.block not in seen_blocks, "duplicate stream block"
            seen_blocks.add(entry.block)
            if entry.state in (EntryState.IN_FLIGHT, EntryState.READY):
                assert entry.ready_cycle >= 0
    assert controller.prefetches_used <= controller.prefetches_issued + 1


def _drive(controller, steps):
    """Apply fuzz steps, checking every invariant after each event."""
    cycle = 0
    for step in steps:
        if isinstance(step, tuple):
            pc_index, block_index, is_store = step
            pc = 0x1000 + pc_index * 4
            addr = 0x100000 + block_index * BLOCK
            sb_ready = controller.probe(addr, cycle)
            if not is_store:
                # Only loads train (MemoryHierarchy._finish_miss): a
                # store's probe hit is the lone event of its cycle.
                controller.on_l1_miss(
                    pc, addr, cycle, sb_hit=sb_ready is not None
                )
            _check_invariants(controller, cycle)
        else:
            for __ in range(step):
                cycle += 1
                controller.tick(cycle)
                _check_invariants(controller, cycle)


class TestControllerFuzz:
    @settings(max_examples=40, deadline=None)
    @given(
        steps=_long_steps,
        policies=_policies,
        sharing=_sharing,
        check_overlap=st.booleans(),
        predictor=_predictors,
    )
    def test_invariants_hold_under_random_miss_streams(
        self, steps, policies, sharing, check_overlap, predictor
    ):
        allocation, scheduling = policies
        policy, pool_entries = sharing
        config = StreamBufferConfig(
            allocation=allocation,
            scheduling=scheduling,
            sharing=policy,
            pool_entries=pool_entries,
            check_overlap=check_overlap,
        )
        controller = StreamBufferController(config, predictor(), BLOCK)
        controller.attach(MemoryHierarchy(SimConfig()))
        _drive(controller, steps)

    @settings(max_examples=40, deadline=None)
    @given(
        steps=_clustered_steps,
        scheduling=st.sampled_from(
            [SchedulingPolicy.PRIORITY, SchedulingPolicy.ROUND_ROBIN]
        ),
        sharing=_sharing,
    )
    def test_predictor_port_through_duplicate_streaks(
        self, steps, scheduling, sharing
    ):
        """Overlapping sequential streams: winners stand through
        duplicate streaks (under priority only), and probe hits and
        misses land between them."""
        policy, pool_entries = sharing
        config = StreamBufferConfig(
            allocation=AllocationPolicy.ALWAYS,
            scheduling=scheduling,
            sharing=policy,
            pool_entries=pool_entries,
        )
        controller = StreamBufferController(
            config, SequentialPredictor(BLOCK), BLOCK
        )
        controller.attach(MemoryHierarchy(SimConfig()))
        _drive(controller, steps)

    @settings(max_examples=20, deadline=None)
    @given(steps=_steps)
    def test_probe_is_one_shot(self, steps):
        """A block taken from a stream buffer is gone: probing the same
        block again without a new prefetch must miss."""
        config = StreamBufferConfig(
            allocation=AllocationPolicy.ALWAYS,
            scheduling=SchedulingPolicy.ROUND_ROBIN,
        )
        controller = StreamBufferController(
            config, StrideFilteredMarkovPredictor(), BLOCK
        )
        controller.attach(MemoryHierarchy(SimConfig()))
        cycle = 0
        for step in steps:
            if isinstance(step, tuple):
                pc_index, block_index, __ = step
                addr = 0x100000 + block_index * BLOCK
                first = controller.probe(addr, cycle)
                if first is not None:
                    assert controller.probe(addr, cycle) is None
                controller.on_l1_miss(
                    0x1000 + pc_index * 4, addr, cycle,
                    sb_hit=first is not None,
                )
            else:
                for __ in range(step):
                    cycle += 1
                    controller.tick(cycle)
