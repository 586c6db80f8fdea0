"""Small shared utilities used across the simulator.

These helpers intentionally stay free of simulator state so that every
subsystem (caches, predictors, stream buffers) can use them without
introducing import cycles.
"""

from __future__ import annotations


def block_address(address: int, block_size: int) -> int:
    """Return ``address`` aligned down to its cache-block boundary.

    ``block_size`` must be a power of two; this is validated by the cache
    configuration rather than on every call for speed.
    """
    return address & ~(block_size - 1)


def is_power_of_two(value: int) -> bool:
    """Return True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def fits_signed(value: int, bits: int) -> bool:
    """Return True when ``value`` is representable in ``bits`` signed bits."""
    if bits < 1:
        return False
    low = -(1 << (bits - 1))
    high = (1 << (bits - 1)) - 1
    return low <= value <= high


def min_bits_signed(value: int) -> int:
    """Return the smallest signed bit-width that can represent ``value``.

    Used by the Figure 4 analysis: the paper reports how many bits the
    differential Markov table needs per entry to capture miss transitions.
    """
    bits = 1
    while not fits_signed(value, bits):
        bits += 1
    return bits
