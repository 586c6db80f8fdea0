"""A fixed reference loop that measures how fast the host runs Python now.

A shared host can slow a vCPU by half for minutes at a time, and a
run's CPU time slows with it, so raw wall time drifts between two sets
of runs of the same code far more than a regression bound allows.  The
benchmark therefore times this loop right before and right after every
measured step, in the same process, and scales the step's wall time by
``REFERENCE_S`` over the loop's time: the step's cost at the host speed
at which the loop takes exactly ``REFERENCE_S``.

The loop is the same kind of work as the simulator (objects with
``__slots__``, small method calls, dict and list look-ups, integer
arithmetic: a set-associative LRU cache fed by a stride predictor) but
is frozen here, inside the benchmark, so a change to the simulator never
changes it.  Changing it changes every normalised metric; do not.
"""

from __future__ import annotations

import gc
import time

#: Iterations of one measurement: about 0.17 s on the reference host.
ITERATIONS = 80_000
#: The loop's typical time on the reference host (a 2-vCPU VM on a
#: shared Intel Xeon, CPython 3.11.7).  Normalised times read as times
#: on that host in its usual state.
REFERENCE_S = 0.17
#: The loop's checksum at :data:`ITERATIONS`; anything else is a bug.
CHECKSUM = 409_080_818


class _Line:
    __slots__ = ("tag", "stamp")

    def __init__(self) -> None:
        self.tag = -1
        self.stamp = 0


class _Cache:
    __slots__ = ("sets", "set_count", "clock", "hits", "misses")

    def __init__(self, set_count: int, ways: int) -> None:
        self.sets = [[_Line() for __ in range(ways)] for __ in range(set_count)]
        self.set_count = set_count
        self.clock = 0
        self.hits = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        self.clock += 1
        block = address >> 5
        lines = self.sets[block % self.set_count]
        tag = block // self.set_count
        for line in lines:
            if line.tag == tag:
                line.stamp = self.clock
                self.hits += 1
                return True
        victim = lines[0]
        for line in lines:
            if line.stamp < victim.stamp:
                victim = line
        victim.tag = tag
        victim.stamp = self.clock
        self.misses += 1
        return False


class _Stride:
    __slots__ = ("table",)

    def __init__(self) -> None:
        self.table = {}

    def train(self, pc: int, address: int):
        entry = self.table.get(pc)
        if entry is None:
            self.table[pc] = [address, 0, 0]
            return None
        stride = address - entry[0]
        if stride == entry[1]:
            entry[2] = min(entry[2] + 1, 3)
        else:
            entry[1] = stride
            entry[2] = max(entry[2] - 1, 0)
        entry[0] = address
        return address + stride if entry[2] >= 2 else None


def reference_loop(iterations: int = ITERATIONS) -> int:
    """Run the fixed work once; return its checksum."""
    cache = _Cache(64, 4)
    stride = _Stride()
    state = 12345
    for step in range(iterations):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        pc = state & 63
        if state & 256:
            address = pc * 4096 + (step % 97) * 32
        else:
            address = state & 0xFFFFF
        if not cache.access(address):
            target = stride.train(pc, address)
            if target is not None:
                cache.access(target)
    return cache.hits * 1_000_003 + cache.misses


def measure() -> float:
    """Seconds the reference loop takes now (after a collection)."""
    gc.collect()
    start = time.perf_counter()
    checksum = reference_loop()
    elapsed = time.perf_counter() - start
    if checksum != CHECKSUM:
        raise RuntimeError(f"reference loop checksum {checksum} != {CHECKSUM}")
    return elapsed


def normalise(seconds: float, loop_s: float) -> float:
    """``seconds`` measured while the loop took ``loop_s``, at reference speed."""
    return seconds * REFERENCE_S / loop_s
