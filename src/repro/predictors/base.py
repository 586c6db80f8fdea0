"""The predictor interface a stream buffer can follow (Section 4).

A Predictor-Directed Stream Buffer splits prediction into two pieces:

- **per-stream history** (:class:`StreamState`) lives *in the stream
  buffer*: the allocating load's PC, the last (speculative) address, a
  stride, confidence, and any extra history a predictor needs;
- a **stateless shared predictor** (:class:`AddressPredictor`) owns the
  prediction tables.  Generating a prediction reads the tables and
  updates only the stream state — tables change exclusively during
  training in the write-back stage, on L1 data-cache misses.

This split is the key mechanism of the paper: prediction *n* is produced
from prediction *n−1* without touching the tables, so a buffer can run
arbitrarily far ahead of the miss stream.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, List, Optional, Tuple


class StreamState:
    """Speculative per-stream history stored inside one stream buffer."""

    __slots__ = ("pc", "last_address", "stride", "confidence", "history")

    def __init__(
        self,
        pc: int,
        last_address: int,
        stride: int = 0,
        confidence: int = 0,
        history: Optional[List[int]] = None,
    ) -> None:
        self.pc = pc
        self.last_address = last_address
        self.stride = stride
        self.confidence = confidence
        self.history = history if history is not None else []

    def __repr__(self) -> str:
        return (
            f"StreamState(pc={self.pc:#x}, last={self.last_address:#x}, "
            f"stride={self.stride}, conf={self.confidence})"
        )


class AddressPredictor(ABC):
    """Interface between the write-back stage, the stream buffers, and the
    shared prediction tables."""

    @abstractmethod
    def train(self, pc: int, address: int) -> bool:
        """Observe a demand L1 miss in write-back; update tables.

        Returns True when the miss address matched what the predictor
        would have predicted (this drives the accuracy confidence).
        """

    @abstractmethod
    def make_stream_state(self, pc: int, address: int) -> StreamState:
        """Copy prediction info into a newly allocated stream buffer."""

    @abstractmethod
    def next_prediction(self, state: StreamState) -> Optional[int]:
        """Produce the next predicted address for a stream.

        Advances ``state`` speculatively; never touches the tables.
        Returns None when the predictor has nothing useful to say.
        """

    def train_all(
        self,
        misses: Iterable[Tuple[int, int]],
        align: int,
        parity: Optional[int] = None,
    ) -> None:
        """Warm on a fast-forward stretch's misses, in order, each as
        ``(pc, address & align)``.

        With ``parity`` ``None`` (full-rate warming) every miss is a
        :meth:`train`.  Detuned warming passes the parity of the misses
        warmed before the stretch: miss *i* (1-based) is a :meth:`train`
        when ``parity + i`` is even and a ``warm(pc, address,
        full=False)`` otherwise.  An implementation may override this
        with a loop that keeps its tables in locals, provided the tables
        and counters end exactly as these per-miss calls leave them.
        """
        train, warm = self.train, self.warm
        # Full rate steps two at a time, so every miss lands on even.
        calls, step = (0, 2) if parity is None else (parity, 1)
        for pc, address in misses:
            calls += step
            if calls & 1:
                warm(pc, address & align, False)
            else:
                train(pc, address & align)

    def warm(self, pc: int, address: int, full: bool = True) -> bool:
        """Observe one *fast-forwarded* miss (sampling warm-up).

        With ``full`` the observation is an ordinary :meth:`train`.
        With ``full=False`` implementations should fold the address into
        their history/stride/transition tables — that state mirrors the
        access stream and must stay exact — but leave the accuracy
        confidence and streak counters untouched.  The sampling layer
        alternates the two to warm confidence at a detuned rate matching
        detailed steady state (see the ``detuned`` mode of
        :meth:`repro.memory.hierarchy.PrefetcherPort.warm`).
        The default always trains at full fidelity.
        """
        return self.train(pc, address)

    def confidence_for(self, pc: int) -> int:
        """Accuracy confidence for a load, used by allocation filtering."""
        return 0

    def allocation_ready(self, pc: int) -> bool:
        """Whether a two-miss-style filter would admit this load.

        Default: always ready (no filtering information available).
        """
        return True
