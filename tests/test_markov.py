"""Unit tests for the differential Markov prediction table."""

import pytest

from repro.config import MarkovPredictorConfig
from repro.predictors.markov import DifferentialMarkovTable


def _table(entries=64, associativity=4):
    return DifferentialMarkovTable(
        MarkovPredictorConfig(entries=entries, associativity=associativity)
    )


class TestMarkovTable:
    """The table's organisation: hashed sets, LRU ways, hit accounting."""

    def test_lookup_unknown(self):
        assert _table().lookup(0x1000) is None

    def test_train_then_lookup(self):
        table = _table()
        table.train(0x1000, 0x2000)
        assert table.lookup(0x1000) == 0x2000

    def test_retrain_overwrites(self):
        table = _table()
        table.train(0x1000, 0x2000)
        table.train(0x1000, 0x3000)
        assert table.lookup(0x1000) == 0x3000

    def test_hit_rate(self):
        table = _table()
        table.train(0x1000, 0x2000)
        table.lookup(0x1000)
        table.lookup(0x9999)
        assert table.hit_rate == 0.5

    def test_associativity_keeps_colliding_entries(self):
        # A 4-way table holds at least 4 entries per set, whatever the hash.
        table = _table(16, associativity=16)  # one fully-assoc set
        addresses = [0x1000 + i * 64 for i in range(16)]
        for address in addresses:
            table.train(address, address + 64)
        assert all(table.lookup(a) == a + 64 for a in addresses)

    def test_lru_way_is_evicted(self):
        table = _table(2, associativity=2)  # one two-way set
        table.train(0x1000, 0x1040)
        table.train(0x2000, 0x2040)
        table.lookup(0x1000)  # 0x2000 is now least recently used
        table.train(0x3000, 0x3040)
        assert table.lookup(0x2000) is None
        assert table.lookup(0x1000) == 0x1040
        assert table.lookup(0x3000) == 0x3040

    def test_rejects_ways_that_do_not_divide_the_entries(self):
        with pytest.raises(ValueError, match="divide evenly"):
            _table(10, associativity=4)


class TestDifferentialMarkovTable:
    def test_stores_deltas(self):
        table = DifferentialMarkovTable()
        table.train(0x1000, 0x1040)
        assert table.lookup(0x1000) == 0x1040

    def test_negative_delta(self):
        table = DifferentialMarkovTable()
        table.train(0x2000, 0x1000)
        assert table.lookup(0x2000) == 0x1000

    def test_out_of_range_delta_not_recorded(self):
        """Transitions beyond the 16-bit window are lost — the trade-off
        Figure 4 quantifies."""
        table = DifferentialMarkovTable()
        table.train(0x1000, 0x1000 + (1 << 20))
        assert table.lookup(0x1000) is None
        assert table.trains_out_of_range == 1

    def test_boundary_delta(self):
        table = DifferentialMarkovTable()
        table.train(0x100000, 0x100000 + 32767)
        assert table.lookup(0x100000) == 0x100000 + 32767
        table.train(0x200000, 0x200000 + 32768)
        assert table.lookup(0x200000) is None

    def test_paper_table_is_4kb(self):
        table = DifferentialMarkovTable(MarkovPredictorConfig())
        assert table.data_store_bytes == 4096

    def test_strided_addresses_spread_over_sets(self):
        """64-byte-spaced block addresses must not cluster in a subset of
        sets (the pathology a low-bit multiplicative hash has)."""
        config = MarkovPredictorConfig(entries=2048, associativity=4)
        table = DifferentialMarkovTable(config)
        addresses = [0x1000_0000 + i * 64 for i in range(1024)]
        for address in addresses:
            table.train(address, address + 64)
        hits = sum(1 for a in addresses if table.lookup(a) == a + 64)
        assert hits / len(addresses) > 0.9

    def test_custom_bit_width(self):
        table = DifferentialMarkovTable(MarkovPredictorConfig(delta_bits=8))
        table.train(0x1000, 0x1000 + 127)
        table.train(0x2000, 0x2000 + 128)
        assert table.lookup(0x1000) == 0x1000 + 127
        assert table.lookup(0x2000) is None
