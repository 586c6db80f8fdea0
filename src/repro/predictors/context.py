"""Order-k context prediction (Section 2.2).

An order-k context predictor hashes the last k addresses of the global
miss stream into a table holding the observed successor.  The paper
simulated higher-order Markov predictors and found "little to no
improvement in prediction accuracy and coverage over first order" for
its benchmarks.  This module is a library :class:`AddressPredictor`
(exported as ``repro.predictors.ContextPredictor``) that no preset
machine uses.  The order-k ablation
(``benchmarks/bench_ablation_markov_order.py``) does not use it either:
it builds its own per-load order-k table, because the paper's Markov
table learns each load's own miss sequence.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.predictors.base import AddressPredictor, StreamState


class ContextPredictor(AddressPredictor):
    """Order-k context/Markov predictor over the global miss stream."""

    def __init__(self, order: int = 2, entries: int = 4096) -> None:
        if order < 1:
            raise ValueError("context order must be >= 1")
        self.order = order
        self.entries = entries
        self._table: Dict[int, Tuple[Tuple[int, ...], int]] = {}
        self._history: Deque[int] = deque(maxlen=order)
        self.trains = 0
        self.correct_trains = 0
        self.lookups = 0
        self.hits = 0

    def _hash(self, context: Tuple[int, ...]) -> int:
        # Cache-block-aligned addresses share their low bits, so fold the
        # context through a real hash before truncating to the table size.
        return hash(context) % self.entries

    def _lookup_context(self, context: Tuple[int, ...]) -> Optional[int]:
        self.lookups += 1
        slot = self._table.get(self._hash(context))
        if slot is None or slot[0] != context:
            return None
        self.hits += 1
        return slot[1]

    def train(self, pc: int, address: int) -> bool:
        """Fold one miss address into the global history table."""
        self.trains += 1
        correct = False
        if len(self._history) == self.order:
            context = tuple(self._history)
            predicted = self._lookup_context(context)
            correct = predicted == address
            self._table[self._hash(context)] = (context, address)
        if correct:
            self.correct_trains += 1
        self._history.append(address)
        return correct

    def make_stream_state(self, pc: int, address: int) -> StreamState:
        """Seed the stream's history with the current global history.

        Training for the allocating miss has usually already appended
        ``address`` to the global history; only add it if absent.
        """
        history = list(self._history)
        if not history or history[-1] != address:
            history.append(address)
        return StreamState(pc, address, history=history[-self.order:])

    def next_prediction(self, state: StreamState) -> Optional[int]:
        """Advance using the stream's own speculative history window."""
        if len(state.history) < self.order:
            return None
        context = tuple(state.history[-self.order:])
        slot = self._table.get(self._hash(context))
        if slot is None or slot[0] != context:
            return None
        predicted = slot[1]
        state.history.append(predicted)
        if len(state.history) > self.order:
            del state.history[: len(state.history) - self.order]
        state.last_address = predicted
        return predicted

    @property
    def accuracy(self) -> float:
        if self.trains == 0:
            return 0.0
        return self.correct_trains / self.trains

    @property
    def coverage(self) -> float:
        """Fraction of lookups for which any prediction existed."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups
