"""The Stride-Filtered Markov (SFM) predictor (Section 4.2).

A two-delta stride table sits in front of a differential Markov table:

- **Training** (write-back, L1 misses only): the load's PC indexes the
  stride table.  If the newly observed stride matches neither the last
  stride nor the two-delta stride, the transition ``last address ->
  current address`` is recorded in the Markov table.  Stride-predictable
  loads therefore never pollute the Markov table — that is the filter.
- **Prediction** (one per cycle, shared by all stream buffers): the
  stream's last address is looked up in the Markov table *and* advanced
  by the stream's fixed stride; a Markov hit wins, otherwise the stride
  address is used.
- **Confidence**: each stride-table entry carries an accuracy counter,
  incremented when a miss matched either component's prediction and
  decremented otherwise.  Stream-buffer allocation copies it (Section 4.3).
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.config import MarkovPredictorConfig, StridePredictorConfig
from repro.predictors.base import AddressPredictor, StreamState
from repro.predictors.markov import DifferentialMarkovTable
from repro.predictors.stride import StrideEntry, TwoDeltaStrideTable


class StrideFilteredMarkovPredictor(AddressPredictor):
    """Two-delta stride filter in front of a differential Markov table."""

    def __init__(
        self,
        stride_config: Optional[StridePredictorConfig] = None,
        markov_config: Optional[MarkovPredictorConfig] = None,
    ) -> None:
        self.stride_table = TwoDeltaStrideTable(stride_config)
        self.markov_table = DifferentialMarkovTable(markov_config)
        self.trains = 0
        self.correct_trains = 0
        self.markov_predictions = 0
        self.stride_predictions = 0

    # ------------------------------------------------------------------
    # Training (write-back stage, misses only)
    # ------------------------------------------------------------------

    def train(self, pc: int, address: int) -> bool:
        """Observe one L1 data-cache miss; update both tables."""
        self.trains += 1
        entry = self.stride_table.lookup(pc)
        if entry is None:
            self.stride_table._allocate(pc, address)
            return False

        stride_prediction = entry.predicted_address
        markov_prediction = self.markov_table.lookup(entry.last_address)
        correct = address == stride_prediction or (
            markov_prediction is not None and address == markov_prediction
        )
        if correct:
            entry.confidence.increment()
            entry.consecutive_correct += 1
            self.correct_trains += 1
        else:
            entry.confidence.decrement()
            entry.consecutive_correct = 0

        last_address = entry.last_address
        new_stride = address - last_address
        stride_covered = (
            new_stride == entry.last_stride or new_stride == entry.two_delta_stride
        )
        entry.observe(address)
        if not stride_covered:
            # Not stride-predictable: record the transition in the Markov
            # table (the "filter" of Stride-Filtered Markov).
            self.markov_table.train(last_address, address)
        return correct

    def train_all(
        self,
        misses: Iterable[Tuple[int, int]],
        align: int,
        parity: Optional[int] = None,
    ) -> None:
        """The per-miss :meth:`train` and ``warm(full=False)`` calls of
        :meth:`AddressPredictor.train_all`, inlined.

        The same updates in the same order as those calls — the stride
        entry's confidence, streaks and two-delta state, the Markov
        lookup and filtered transition, and every statistics counter —
        with the table sets, the hash and the counters held in locals.
        A detuned miss skips the Markov lookup, the confidence and the
        correct-miss streak, as :meth:`warm` does.  The test suite pins
        the tables and counters to the per-miss calls at both rates.
        """
        stride_table = self.stride_table
        stride_sets = stride_table._sets
        stride_nsets = stride_table.num_sets
        stride_ways = stride_table.config.associativity
        confidence_max = stride_table.config.confidence_max
        markov = self.markov_table
        markov_sets = markov._sets
        markov_nsets = markov.num_sets
        markov_ways = markov.associativity
        delta_low = -(1 << (markov.delta_bits - 1))
        delta_high = (1 << (markov.delta_bits - 1)) - 1
        # Full rate steps two at a time, so every miss lands on even.
        first, step = (0, 2) if parity is None else (parity, 1)
        calls = first
        correct_trains = lookups = hits = 0
        markov_trains = out_of_range = 0
        for pc, address in misses:
            address &= align
            calls += step
            stride_set = stride_sets[pc % stride_nsets]
            entry = stride_set.get(pc)
            if entry is None:
                if len(stride_set) >= stride_ways:
                    stride_set.popitem(last=False)
                stride_set[pc] = StrideEntry(pc, address, confidence_max)
                continue
            stride_set.move_to_end(pc)
            last_address = entry.last_address
            new_stride = address - last_address
            # The set of the Markov key (mirrors the table's _set_for):
            # a full miss looks it up, and the filtered transition below
            # trains it at either rate.
            hashed = (last_address >> 5) * 0x9E3779B1 & 0xFFFFFFFF
            markov_set = markov_sets[(hashed >> 16) % markov_nsets]
            if not calls & 1:
                # A full miss: the Markov lookup, then the confidence
                # and the correct-miss streak.
                lookups += 1
                successor = markov_set.get(last_address)
                if successor is not None:
                    markov_set.move_to_end(last_address)
                    hits += 1
                    successor += last_address
                counter = entry.confidence
                if (new_stride == entry.two_delta_stride
                        or address == successor):
                    if counter.value < counter.maximum:
                        counter.value += 1
                    entry.consecutive_correct += 1
                    correct_trains += 1
                else:
                    if counter.value > counter.minimum:
                        counter.value -= 1
                    entry.consecutive_correct = 0
            # StrideEntry.observe, then the filter.
            stride_covered = (
                new_stride == entry.last_stride
                or new_stride == entry.two_delta_stride
            )
            if new_stride == entry.last_stride:
                entry.two_delta_stride = new_stride
                entry.consecutive_same_stride += 1
            else:
                entry.consecutive_same_stride = 0
            entry.last_stride = new_stride
            entry.last_address = address
            if stride_covered:
                continue
            markov_trains += 1
            if not delta_low <= new_stride <= delta_high:
                out_of_range += 1
                continue
            if last_address in markov_set:
                markov_set.move_to_end(last_address)
            elif len(markov_set) >= markov_ways:
                markov_set.popitem(last=False)
            markov_set[last_address] = new_stride
        # The full misses are the even counts in (first, calls].
        self.trains += calls // 2 - first // 2
        self.correct_trains += correct_trains
        markov.lookups += lookups
        markov.hits += hits
        markov.trains += markov_trains
        markov.trains_out_of_range += out_of_range

    def warm(self, pc: int, address: int, full: bool = True) -> bool:
        """Fast-forward observation; ``full=False`` detunes confidence.

        The stride entry's address state and the Markov transition table
        follow the miss stream exactly either way — both mirror what
        detailed execution would record — but a detuned observation
        skips the accuracy counter and the correct-streak update, so
        confidence climbs at the rate detailed steady state would see.
        """
        if full:
            return self.train(pc, address)
        entry = self.stride_table.lookup(pc)
        if entry is None:
            self.stride_table._allocate(pc, address)
            return False
        last_address = entry.last_address
        new_stride = address - last_address
        stride_covered = (
            new_stride == entry.last_stride or new_stride == entry.two_delta_stride
        )
        entry.observe(address)
        if not stride_covered:
            self.markov_table.train(last_address, address)
        return False

    # ------------------------------------------------------------------
    # Stream-buffer side
    # ------------------------------------------------------------------

    def make_stream_state(self, pc: int, address: int) -> StreamState:
        """Copy PC, address, fixed stride, and confidence on allocation."""
        entry = self.stride_table.lookup(pc)
        stride = entry.two_delta_stride if entry is not None else 0
        confidence = int(entry.confidence) if entry is not None else 0
        return StreamState(pc, address, stride=stride, confidence=confidence)

    def next_prediction(self, state: StreamState) -> Optional[int]:
        """Markov hit wins; otherwise fall back to the allocated stride."""
        markov_prediction = self.markov_table.lookup(state.last_address)
        if markov_prediction is not None:
            self.markov_predictions += 1
            state.last_address = markov_prediction
            return markov_prediction
        if state.stride == 0:
            return None
        self.stride_predictions += 1
        state.last_address += state.stride
        return state.last_address

    def confidence_for(self, pc: int) -> int:
        return self.stride_table.confidence_for(pc)

    def allocation_ready(self, pc: int) -> bool:
        """PSB two-miss filter: two consecutive correctly predicted misses
        (by either the stride or the Markov component — Section 4.3)."""
        entry = self.stride_table.lookup(pc)
        return entry is not None and entry.consecutive_correct >= 2

    @property
    def accuracy(self) -> float:
        if self.trains == 0:
            return 0.0
        return self.correct_trains / self.trains
