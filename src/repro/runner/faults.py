"""Deterministic fault injection for testing the campaign runner.

A :class:`FaultSpec` rides inside a :class:`~repro.runner.campaign.RunSpec`
(it is a frozen, picklable dataclass, so it crosses the process boundary)
and :func:`inject_faults` wraps the run's trace iterator to fire the
scheduled faults:

- **crash** — raise :class:`InjectedCrash` (a plain ``RuntimeError``)
  when the indexed record is reached.  The simulator classifies it as a
  retryable :class:`~repro.errors.SimulationError`.  ``crash_attempts``
  limits the crash to the first *k* attempts of a run, which is how
  tests prove that retry actually recovers.
- **hang** — sleep ``hang_seconds`` at the indexed record, modelling a
  wedged simulation.  Only a process-isolated runner with a timeout can
  recover from this; never inject a hang into an inline run.
- **corrupt record** — raise :class:`~repro.errors.TraceFormatError` at
  the indexed record, modelling a malformed record discovered mid-stream
  by a lazy trace parser.  Non-retryable by design.
- **corrupt state** — silently clobber a live simulator structure (an
  MSHR file, a bus reservation list, a stream buffer, a saturating
  counter, a statistics counter) when the indexed record is reached,
  *without raising anything*.  This models the exact failure the
  integrity layer exists for: plausible-but-wrong state that produces
  plausible-but-wrong numbers.  Only an enabled
  :class:`~repro.integrity.invariants.InvariantChecker` turns it into
  an :class:`~repro.errors.IntegrityError`; with invariants off the
  run completes and reports garbage, which is the point of the test.

Everything is a function of (record index, attempt number): the same
spec always fires the same faults at the same points, so recovery tests
are exactly reproducible.

:func:`corrupt_trace_file` complements the iterator-level faults by
physically clobbering a line of an on-disk trace, for end-to-end tests
that want the *real* parser to trip over a *real* bad record.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from repro.errors import TraceFormatError
from repro.streambuf.buffer import EntryState
from repro.trace.record import TraceRecord

#: Valid ``FaultSpec.corrupt_state_target`` values.
CORRUPT_STATE_TARGETS = ("mshr", "bus", "streambuf", "counter", "stats")


class InjectedCrash(RuntimeError):
    """The fault harness's stand-in for an arbitrary simulator crash."""


@dataclass(frozen=True)
class FaultSpec:
    """Schedule of faults to inject into one run's trace stream.

    Record indices are 0-based positions in the dynamic record stream.
    ``None`` disables that fault.
    """

    #: Raise :class:`InjectedCrash` when this record index is reached.
    crash_at: Optional[int] = None
    #: Crash only on the first ``crash_attempts`` attempts (``None`` =
    #: every attempt — a "hard" deterministic crash).
    crash_attempts: Optional[int] = None
    #: Sleep at this record index, simulating a hung run.
    hang_at: Optional[int] = None
    hang_seconds: float = 3600.0
    #: Hang only on the first ``hang_attempts`` attempts (``None`` =
    #: every attempt).  A snapshot-resumed retry past the hang index
    #: never replays the hang regardless.
    hang_attempts: Optional[int] = None
    #: Raise :class:`TraceFormatError` at this record index.
    corrupt_at: Optional[int] = None
    #: Silently corrupt live simulator state at this record index.
    corrupt_state_at: Optional[int] = None
    #: Which structure :func:`corrupt_simulator_state` clobbers.
    corrupt_state_target: str = "mshr"

    def __post_init__(self) -> None:
        for name in ("crash_at", "hang_at", "corrupt_at", "corrupt_state_at"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"FaultSpec.{name}: must be >= 0")
        if self.corrupt_state_target not in CORRUPT_STATE_TARGETS:
            raise ValueError(
                f"FaultSpec.corrupt_state_target: {self.corrupt_state_target!r} "
                f"is not one of {CORRUPT_STATE_TARGETS}"
            )

    @property
    def is_noop(self) -> bool:
        return (
            self.crash_at is None
            and self.hang_at is None
            and self.corrupt_at is None
            and self.corrupt_state_at is None
        )


def inject_faults(
    records: Iterable[TraceRecord],
    spec: FaultSpec,
    attempt: int = 0,
    on_corrupt_state: Optional[Callable[[str], None]] = None,
) -> Iterator[TraceRecord]:
    """Yield ``records``, firing the faults scheduled in ``spec``.

    ``attempt`` is the 0-based retry attempt of the surrounding run; it
    gates ``crash_attempts``/``hang_attempts`` so a transient fault can
    "heal" after a retry while everything else stays byte-identical.

    ``on_corrupt_state`` is invoked with the configured target when the
    ``corrupt_state_at`` index is reached — the caller binds it to the
    live simulator (the trace stream cannot reach inside the machine).
    """
    crash_armed = spec.crash_at is not None and (
        spec.crash_attempts is None or attempt < spec.crash_attempts
    )
    hang_armed = spec.hang_at is not None and (
        spec.hang_attempts is None or attempt < spec.hang_attempts
    )
    for index, record in enumerate(records):
        if spec.corrupt_at is not None and index == spec.corrupt_at:
            raise TraceFormatError(
                f"injected corrupt record at index {index}",
                line_number=index + 2,  # +1 header, +1 to 1-based
                line="<injected>",
            )
        if crash_armed and index == spec.crash_at:
            raise InjectedCrash(
                f"injected crash at record {index} (attempt {attempt})"
            )
        if hang_armed and index == spec.hang_at:
            time.sleep(spec.hang_seconds)
        if (
            spec.corrupt_state_at is not None
            and index == spec.corrupt_state_at
            and on_corrupt_state is not None
        ):
            on_corrupt_state(spec.corrupt_state_target)
        yield record


def corrupt_simulator_state(simulator, target: str) -> None:
    """Deterministically clobber one structure of a live simulator.

    Every recipe produces a state that is *silently* wrong — nothing
    raises here — but that provably violates the named invariant, so an
    enabled checker must convert it into an
    :class:`~repro.errors.IntegrityError`:

    - ``mshr`` — phantom in-flight entries appear in the L1 MSHR file
      without matching allocations (violates ``l1.mshr.balance``, and
      ``l1.mshr.capacity`` once past the file size).
    - ``bus`` — a zero-length reservation lands on the L1-L2 bus
      (violates ``l1_l2_bus.reservation``).
    - ``streambuf`` — buffer 0 is deallocated while an entry still
      holds a block (violates ``streambuf[0].stale``).
    - ``counter`` — buffer 0's priority counter escapes its saturation
      bound (violates ``streambuf[0].priority.bounds``).
    - ``stats`` — the hierarchy reports more demand misses than demand
      accesses (violates ``stats.consistency``).
    """
    hierarchy = simulator.hierarchy
    controller = simulator.controller
    if target in ("streambuf", "counter") and not hasattr(
        controller, "buffers"
    ):
        raise ValueError(
            f"corrupt_state_target {target!r} needs a stream-buffer "
            "configuration (the machine has no buffers to corrupt)"
        )
    if target == "mshr":
        mshr = hierarchy.l1_mshr
        base = 0x7FF0_0000
        for index in range(mshr.num_entries + 2):
            mshr._inflight.setdefault(base + index * 64, 1 << 60)
    elif target == "bus":
        start = 1 << 40  # far future: drain() never prunes it away
        hierarchy.l1_l2_bus._reservations.append((start, start))
    elif target == "streambuf":
        buffer = controller.buffers[0]
        entry = buffer.entries[0]
        entry.state = EntryState.READY
        entry.block = 0xDEAD_0000
        buffer.allocated = False
        buffer.state = None
    elif target == "counter":
        counter = controller.buffers[0].priority
        counter.value = counter.maximum + 7
    elif target == "stats":
        hierarchy.demand_misses = hierarchy.demand_accesses + 10
    else:
        raise ValueError(f"unknown corrupt_state_target: {target!r}")


def corrupt_trace_file(
    path: str, line_number: int, garbage: str = "!! corrupt record !!"
) -> str:
    """Overwrite 1-based ``line_number`` of the trace at ``path``.

    Returns the original line text so tests can assert against it.  The
    header is line 1; the first record is line 2.
    """
    with open(path) as handle:
        lines = handle.readlines()
    if not 1 <= line_number <= len(lines):
        raise ValueError(
            f"line {line_number} out of range (file has {len(lines)} lines)"
        )
    original = lines[line_number - 1].rstrip("\n")
    lines[line_number - 1] = garbage + "\n"
    with open(path, "w") as handle:
        handle.writelines(lines)
    return original
