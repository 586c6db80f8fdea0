"""Unit tests for the interval-reservation bus model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BusConfig
from repro.memory.bus import Bus


def _bus(bandwidth=8):
    return Bus(BusConfig(name="test", bytes_per_cycle=bandwidth))


class LinearBus(Bus):
    """Reference model: every query walks the reservations from the head.

    No binary search; the differential tests below hold :class:`Bus` to
    this model's answers and reservation lists.
    """

    def prune_before(self, cycle):
        reservations = self._reservations
        drop = 0
        for start, end in reservations:
            if end <= cycle:
                drop += 1
            else:
                break
        del reservations[:drop]

    def next_free_cycle(self, cycle):
        free = cycle
        for start, end in self._reservations:
            if start > free:
                break
            if end > free:
                free = end
        return free

    def acquire(self, earliest_cycle, num_bytes):
        duration = self.transfer_cycles(num_bytes)
        reservations = self._reservations
        start = earliest_cycle
        position = 0
        for index, (busy_start, busy_end) in enumerate(reservations):
            if start + duration <= busy_start:
                position = index
                break
            start = max(start, busy_end)
            position = index + 1
        reservations.insert(position, (start, start + duration))
        self.busy_cycles += duration
        self.transactions += 1
        return start


def _reference(bandwidth=8):
    return LinearBus(BusConfig(name="reference", bytes_per_cycle=bandwidth))


class TestBusBasics:
    def test_initially_free(self):
        assert _bus().is_free_at(0)
        assert _bus().is_free_at(1000)

    def test_acquire_returns_start(self):
        bus = _bus()
        assert bus.acquire(5, 32) == 5

    def test_busy_during_transfer(self):
        bus = _bus()
        bus.acquire(10, 32)  # 4 cycles: busy [10, 14)
        assert not bus.is_free_at(10)
        assert not bus.is_free_at(13)
        assert bus.is_free_at(14)
        assert bus.is_free_at(9)

    def test_serializes_overlapping_requests(self):
        bus = _bus()
        first = bus.acquire(0, 32)
        second = bus.acquire(0, 32)
        assert first == 0
        assert second == 4

    def test_future_reservation_leaves_gap_free(self):
        """The window between a request and its refill must stay free —
        this is the slack stream-buffer prefetches use."""
        bus = _bus()
        bus.acquire(20, 32)  # refill booked for [20, 24)
        assert bus.is_free_at(5)
        assert bus.is_free_at(19)
        assert not bus.is_free_at(21)

    def test_fits_transfer_into_gap(self):
        bus = _bus()
        bus.acquire(0, 32)  # [0, 4)
        bus.acquire(20, 32)  # [20, 24)
        start = bus.acquire(0, 32)  # should slot into [4, 8)
        assert start == 4

    def test_skips_too_small_gap(self):
        bus = _bus()
        bus.acquire(0, 32)  # [0, 4)
        bus.acquire(6, 32)  # [6, 10)
        start = bus.acquire(0, 32)  # gap [4, 6) too small for 4 cycles
        assert start == 10


class TestBusStats:
    def test_busy_cycles_accumulate(self):
        bus = _bus()
        bus.acquire(0, 32)
        bus.acquire(0, 16)
        assert bus.busy_cycles == 6
        assert bus.transactions == 2

    def test_utilization(self):
        bus = _bus()
        bus.acquire(0, 32)
        assert bus.utilization(8) == 0.5
        assert bus.utilization(0) == 0.0

    def test_utilization_capped_at_one(self):
        bus = _bus()
        bus.acquire(0, 800)
        assert bus.utilization(10) == 1.0

    def test_reset_stats(self):
        bus = _bus()
        bus.acquire(0, 32)
        bus.reset_stats()
        assert bus.busy_cycles == 0
        assert bus.transactions == 0

    def test_prune_discards_past_reservations(self):
        bus = _bus()
        for i in range(100):
            bus.acquire(i * 10, 16)  # [10i, 10i + 2)
        bus.prune_before(500)
        kept = [(i * 10, i * 10 + 2) for i in range(50, 100)]
        assert bus.reservations() == kept
        bus.prune_before(10_000)
        assert bus.reservations() == []
        assert bus.busy_cycles == 200  # counters outlive pruning


class TestBusPrune:
    def test_queries_do_not_prune(self):
        bus = _bus()
        bus.acquire(0, 32)  # [0, 4)
        assert bus.is_free_at(100)
        assert bus.next_free_cycle(100) == 100
        assert bus.reservations() == [(0, 4)]

    def test_straddling_reservation_kept_whole(self):
        bus = _bus()
        bus.acquire(0, 32)  # [0, 4)
        bus.acquire(10, 32)  # [10, 14)
        bus.prune_before(12)
        assert bus.reservations() == [(10, 14)]

    def test_reservation_ending_at_cycle_dropped(self):
        bus = _bus()
        bus.acquire(0, 32)  # [0, 4)
        bus.acquire(4, 32)  # [4, 8)
        bus.acquire(8, 32)  # [8, 12)
        bus.prune_before(8)
        assert bus.reservations() == [(8, 12)]
        bus.prune_before(11)
        assert bus.reservations() == [(8, 12)]
        bus.prune_before(12)
        assert bus.reservations() == []

    def test_acquire_books_into_pruned_gap(self):
        """A dirty-victim write-back is booked at its fill's (past) ready
        cycle after ``drain`` pruned, so it may land where pruned
        bookings were: pruning is observable."""
        bus = _bus()
        for earliest in (0, 4, 8, 20):
            bus.acquire(earliest, 32)  # [0, 4) [4, 8) [8, 12) [20, 24)
        bus.prune_before(10)
        assert bus.reservations() == [(8, 12), (20, 24)]
        assert bus.acquire(2, 16) == 2
        assert bus.reservations() == [(2, 4), (8, 12), (20, 24)]

        unpruned = _bus()
        for earliest in (0, 4, 8, 20):
            unpruned.acquire(earliest, 32)
        assert unpruned.acquire(2, 16) == 12


#: One step of a bus's life: advance the clock, then apply an operation
#: at ``clock + offset`` (``prune_before`` always at ``clock``, as
#: ``drain`` does).  Negative offsets book before the last prune cycle.
_steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.sampled_from(
            ["acquire", "acquire", "next_free_cycle", "is_free_at",
             "prune_before"]
        ),
        st.integers(min_value=-30, max_value=150),
        st.sampled_from([4, 8, 16, 32, 64, 100]),
    ),
    max_size=150,
)


class TestBusAgainstLinearReference:
    @settings(max_examples=200, deadline=None)
    @given(_steps)
    def test_matches_linear_scan(self, steps):
        bus, reference = _bus(), _reference()
        clock = 0
        for advance, operation, offset, num_bytes in steps:
            clock += advance
            cycle = max(0, clock + offset)
            if operation == "acquire":
                args = (cycle, num_bytes)
            elif operation == "prune_before":
                args = (clock,)
            else:
                args = (cycle,)
            answer = getattr(reference, operation)(*args)
            assert getattr(bus, operation)(*args) == answer
            assert bus.reservations() == reference.reservations()
        assert bus.busy_cycles == reference.busy_cycles

    def test_matches_linear_scan_on_deep_list(self):
        """Hundreds of live bookings: the binary search lands mid-list."""
        bus, reference = _bus(), _reference()
        for index in range(300):
            earliest = (index * 37) % 1500
            assert bus.acquire(earliest, 32) == reference.acquire(
                earliest, 32
            )
        assert len(bus.reservations()) == 300
        for cycle in range(0, 2000, 7):
            free = reference.next_free_cycle(cycle)
            assert bus.next_free_cycle(cycle) == free
            assert bus.acquire(cycle, 16) == reference.acquire(cycle, 16)
            assert bus.reservations() == reference.reservations()
        for cycle in range(0, 3000, 50):
            bus.prune_before(cycle)
            reference.prune_before(cycle)
            assert bus.reservations() == reference.reservations()
