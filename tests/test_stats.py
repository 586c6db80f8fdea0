"""Unit tests for repro.stats."""

from repro.stats import Accumulator, Histogram, ratio


class TestAccumulator:
    def test_empty_mean_is_zero(self):
        assert Accumulator("lat").mean == 0.0

    def test_mean(self):
        acc = Accumulator("lat")
        for sample in (1, 2, 3, 10):
            acc.add(sample)
        assert acc.mean == 4.0
        assert acc.count == 4
        assert acc.maximum == 10

    def test_reset(self):
        acc = Accumulator("lat")
        acc.add(5)
        acc.reset()
        assert acc.count == 0
        assert acc.mean == 0.0


class TestHistogram:
    def test_fraction_at_or_below(self):
        hist = Histogram("bits")
        hist.add(8, 3)
        hist.add(16, 6)
        hist.add(24, 1)
        assert hist.total == 10
        assert hist.fraction_at_or_below(8) == 0.3
        assert hist.fraction_at_or_below(16) == 0.9
        assert hist.fraction_at_or_below(24) == 1.0

    def test_empty_fraction(self):
        assert Histogram("bits").fraction_at_or_below(16) == 0.0

    def test_cumulative_is_monotone(self):
        hist = Histogram("bits")
        for key in (2, 5, 5, 9, 14, 30):
            hist.add(key)
        curve = hist.cumulative(list(range(32)))
        assert curve == sorted(curve)
        assert curve[-1] == 1.0


class TestRates:
    def test_ratio_zero_denominator(self):
        assert ratio(5, 0) == 0.0

    def test_ratio(self):
        assert ratio(1, 4) == 0.25
