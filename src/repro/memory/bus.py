"""Occupancy-modelled buses.

The paper rewrote SimpleScalar's memory hierarchy "to better model bus
occupancy, bandwidth, and pipelining" and gates prefetches on the L1-L2
bus being free at the start of a cycle.  :class:`Bus` captures that with
an *interval reservation* model: a transaction occupies the bus only for
the cycles its bytes are actually moving, so the window between a miss
request going down and its refill coming back stays free — exactly the
slack stream-buffer prefetches live off.

Queries start at the first reservation still live at their cycle,
found by binary search.  That relies on the order ``check_bus``
enforces (sorted, non-overlapping): every reservation before that one
ended at or before the query cycle and cannot change the answer.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Tuple

from repro.config import BusConfig

#: Sorts after any reservation with the same start: a stand-in for
#: ``bisect``'s ``key=``, which Python 3.9 lacks.
_AFTER_ANY_END = 1 << 63


class Bus:
    """A single-transaction bus with a bytes-per-cycle bandwidth limit.

    Reservations are half-open ``[start, end)`` intervals, kept sorted
    and non-overlapping; ``check_bus`` enforces that order and the
    binary-search lookup relies on it.  ``acquire`` books the earliest
    gap that fits.
    """

    def __init__(self, config: BusConfig) -> None:
        self.config = config
        self._reservations: List[Tuple[int, int]] = []
        # Size -> duration cache: transfers come in two sizes (request
        # packet, refill block) but the duration math runs per transfer.
        self._duration_of: dict = {}
        self.busy_cycles = 0
        self.transactions = 0

    def prune_before(self, cycle: int) -> None:
        """Forget reservations that ended at or before ``cycle``.

        Only safe with the *simulation clock* (monotone): an ``acquire``
        may book far in the future and must not erase reservations that
        earlier-cycle callers still contend with.  Pruning is observable
        (a write-back booked before ``cycle`` afterwards may land in a
        gap it frees), so it drops exactly those reservations and keeps
        one straddling ``cycle`` whole.
        """
        live = self._first_live(cycle)
        if live:
            del self._reservations[:live]

    def _first_live(self, cycle: int) -> int:
        """Index of the first reservation ending after ``cycle``."""
        reservations = self._reservations
        if not reservations or reservations[0][1] > cycle:
            return 0
        # Reservations starting at or before ``cycle``; of those only
        # the last can still be running at ``cycle``.
        index = bisect_right(reservations, (cycle, _AFTER_ANY_END))
        if reservations[index - 1][1] > cycle:
            index -= 1
        return index

    def is_free_at(self, cycle: int) -> bool:
        """True when no transaction occupies the bus at ``cycle``.

        A pure query: unlike :meth:`prune_before` it never mutates the
        reservation list, so cycle-skipping callers (the event-driven
        core loop probes future cycles) leave the bus state untouched.
        """
        return self.next_free_cycle(cycle) == cycle

    def next_free_cycle(self, cycle: int) -> int:
        """Earliest cycle >= ``cycle`` with no transaction on the wires.

        This is the accessor the event-driven core loop uses to compute
        its skip-ahead horizon: when prefetches are pending but the bus
        is occupied, nothing can happen before this cycle.  Pure query;
        no pruning.
        """
        reservations = self._reservations
        count = len(reservations)
        index = self._first_live(cycle)
        free = cycle
        while index < count:
            start, end = reservations[index]
            if start > free:
                break
            if end > free:
                free = end
            index += 1
        return free

    def reservations(self) -> List[Tuple[int, int]]:
        """A copy of the current ``[start, end)`` reservation intervals.

        Public introspection for the integrity checker and tests, so
        nothing outside this class walks ``_reservations`` directly.
        """
        return list(self._reservations)

    def transfer_cycles(self, num_bytes: int) -> int:
        """Cycles required to move ``num_bytes`` at this bus's bandwidth."""
        duration = self._duration_of.get(num_bytes)
        if duration is None:
            duration = self.config.transfer_cycles(num_bytes)
            self._duration_of[num_bytes] = duration
        return duration

    def acquire(self, earliest_cycle: int, num_bytes: int) -> int:
        """Reserve the earliest gap fitting a ``num_bytes`` transfer.

        Returns the cycle the transfer *starts*; it completes
        ``transfer_cycles(num_bytes)`` later.
        """
        duration = self.transfer_cycles(num_bytes)
        reservations = self._reservations
        count = len(reservations)
        position = self._first_live(earliest_cycle)
        start = earliest_cycle
        while position < count:
            busy_start, busy_end = reservations[position]
            if start + duration <= busy_start:
                break
            if busy_end > start:
                start = busy_end
            position += 1
        reservations.insert(position, (start, start + duration))
        self.busy_cycles += duration
        self.transactions += 1
        return start

    def utilization(self, total_cycles: int) -> float:
        """Fraction of ``total_cycles`` the bus spent busy."""
        if total_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / total_cycles)

    def stats(self) -> dict:
        """Cumulative activity counters (for probes and reports)."""
        return {
            "busy_cycles": self.busy_cycles,
            "transactions": self.transactions,
        }

    def reset_stats(self) -> None:
        """Zero the activity counters (fired at the warm-up boundary)."""
        self.busy_cycles = 0
        self.transactions = 0

    def __repr__(self) -> str:
        return (
            f"Bus({self.config.name}: pending={len(self._reservations)}, "
            f"busy={self.busy_cycles})"
        )
