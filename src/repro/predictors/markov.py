"""First-order differential Markov address prediction (Section 4.2).

The paper's space optimization over Joseph and Grunwald's Markov
prefetcher (modelled on its own as the ``demand-markov`` machine): the
table stores only the *signed difference* between consecutive miss
addresses, clamped to a configurable bit-width (16 bits captures almost
all transitions — Figure 4).  With 2 K entries of 16 bits the data
store is 4 KB, the size the paper reports.

The paper does not state the table's organization beyond "2K entries";
we model it set-associative (4-way LRU by default, like the stride
table) with a hashed index, since a direct-mapped table at the load
factors of these benchmarks loses a third of its transitions to
conflicts and the run-ahead prediction chain dies at every hole.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from repro.config import MarkovPredictorConfig
from repro.utils import fits_signed


class DifferentialMarkovTable:
    """The paper's differential Markov table: stores signed deltas only.

    A transition whose delta does not fit in ``delta_bits`` signed bits is
    simply not recorded — exactly the trade-off Figure 4 quantifies.  The
    predicted address is reconstructed as ``address + stored_delta``.
    """

    def __init__(self, config: Optional[MarkovPredictorConfig] = None) -> None:
        self.config = config or MarkovPredictorConfig()
        self.entries = self.config.entries
        self.associativity = self.config.associativity
        if self.entries % self.associativity != 0:
            raise ValueError("entries must divide evenly into ways")
        self.delta_bits = self.config.delta_bits
        self.num_sets = self.entries // self.associativity
        self._sets: List[OrderedDict] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self.trains = 0
        self.trains_out_of_range = 0
        self.lookups = 0
        self.hits = 0

    def _set_for(self, address: int) -> OrderedDict:
        # Multiplicative hashing, taking the product's *high* bits: block
        # addresses share low-order alignment, and multiplication by an
        # odd constant leaves low bits unmixed, so the top half is what
        # spreads evenly over the sets.
        hashed = (address >> 5) * 0x9E3779B1 & 0xFFFFFFFF
        return self._sets[(hashed >> 16) % self.num_sets]

    def train(self, from_address: int, to_address: int) -> None:
        """Record a transition, if its delta fits in ``delta_bits`` bits."""
        self.trains += 1
        delta = to_address - from_address
        if not fits_signed(delta, self.delta_bits):
            self.trains_out_of_range += 1
            return
        table_set = self._set_for(from_address)
        if from_address in table_set:
            table_set.move_to_end(from_address)
        elif len(table_set) >= self.associativity:
            table_set.popitem(last=False)
        table_set[from_address] = delta

    def lookup(self, address: int) -> Optional[int]:
        """Predicted successor of ``address`` (LRU refresh), or None on a
        table miss."""
        self.lookups += 1
        table_set = self._set_for(address)
        delta = table_set.get(address)
        if delta is None:
            return None
        table_set.move_to_end(address)
        self.hits += 1
        return address + delta

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    @property
    def data_store_bytes(self) -> int:
        """Size of the delta store (the 4 KB figure from Section 4.2)."""
        return self.entries * self.delta_bits // 8
