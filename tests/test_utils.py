"""Unit tests for repro.utils."""

from repro.utils import (
    block_address,
    fits_signed,
    is_power_of_two,
    min_bits_signed,
)


class TestBlockAddress:
    def test_aligns_down(self):
        assert block_address(0x1234, 32) == 0x1220

    def test_already_aligned(self):
        assert block_address(0x1220, 32) == 0x1220

    def test_zero(self):
        assert block_address(0, 64) == 0


class TestPowerOfTwo:
    def test_powers(self):
        for exponent in range(12):
            assert is_power_of_two(1 << exponent)

    def test_non_powers(self):
        for value in (0, -1, 3, 6, 12, 100):
            assert not is_power_of_two(value)


class TestSignedHelpers:
    def test_fits_signed_bounds(self):
        assert fits_signed(127, 8)
        assert fits_signed(-128, 8)
        assert not fits_signed(128, 8)
        assert not fits_signed(-129, 8)

    def test_fits_signed_16_bits(self):
        # The paper's differential Markov entries are 16 bits.
        assert fits_signed(32767, 16)
        assert fits_signed(-32768, 16)
        assert not fits_signed(32768, 16)

    def test_min_bits_zero(self):
        assert min_bits_signed(0) == 1

    def test_min_bits_roundtrip(self):
        for value in (-70000, -129, -128, -1, 1, 127, 128, 65535):
            bits = min_bits_signed(value)
            assert fits_signed(value, bits)
            assert not fits_signed(value, bits - 1)
