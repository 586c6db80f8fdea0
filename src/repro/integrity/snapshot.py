"""Deterministic mid-run snapshot and resume.

A snapshot captures the *entire* machine — caches, MSHRs, buses, stream
buffers, predictor tables, the core's in-flight window — plus the run
bookkeeping (:class:`repro.cpu.core._RunState`, or the sampling
driver's state for a sampled run), as one pickle taken at a cycle
boundary.  The trace iterator itself is deliberately **not**
captured: traces here are deterministic (workload generators seeded, or
files), so a resume rebuilds the trace from its source and skips the
``records_consumed`` records the snapshotted run already pulled.  The
result is bit-identical to an uninterrupted run, which the test suite
asserts field-for-field.

This extends PR 1's between-runs checkpointing to *within*-run: a
campaign run killed by a timeout resumes from its last snapshot file
instead of restarting from instruction zero.
"""

from __future__ import annotations

import itertools
import os
import pickle
import uuid
import zlib
from typing import Callable, Iterable, Iterator, Optional

from repro.errors import IntegrityError, SimulationError
from repro.trace.record import TraceRecord


class SimSnapshot:
    """One resumable machine state, pickled at a cycle boundary.

    The machine lives in an opaque ``payload`` blob; :meth:`restore`
    deserializes a *fresh* object graph on every call, so one snapshot
    can seed many independent resumes (and resuming never aliases the
    simulator that produced it).
    """

    __slots__ = (
        "payload", "cycle", "records_consumed", "label", "checksum", "mode"
    )

    def __init__(
        self,
        payload: bytes,
        cycle: int,
        records_consumed: int,
        label: str,
        mode: str = "detailed",
    ) -> None:
        self.payload = payload
        self.cycle = cycle
        self.records_consumed = records_consumed
        self.label = label
        self.checksum = zlib.crc32(payload) & 0xFFFFFFFF
        #: Which kind of run captured this snapshot (:func:`run_mode`):
        #: ``"detailed"`` payloads hold ``(simulator, _RunState)`` pairs,
        #: ``"sampled"`` ones hold ``(simulator, _SamplingState)``.
        #: Resume paths check the tag against the machine's config so a
        #: mislabelled snapshot fails loudly instead of deserializing the
        #: wrong state shape into a silently diverging run.
        self.mode = mode

    @classmethod
    def capture(cls, simulator, state, label: str = "run") -> "SimSnapshot":
        """Freeze ``simulator`` + its run ``state`` into a snapshot."""
        payload = pickle.dumps(
            (simulator, state), protocol=pickle.HIGHEST_PROTOCOL
        )
        return cls(
            payload,
            state.cycle,
            state.records_consumed,
            label,
            mode=run_mode(simulator.config),
        )

    def verify(self) -> None:
        """Raise :class:`SimulationError` if the payload was modified.

        The checksum is taken over the machine-state pickle at capture
        time, so a bit flip anywhere in the (dominant) payload blob is
        caught before :meth:`restore` can deserialize garbage machine
        state into a resumed run.
        """
        found = zlib.crc32(self.payload) & 0xFFFFFFFF
        if found != self.checksum:
            raise SimulationError(
                f"corrupt snapshot {self.label!r}: payload CRC32 is "
                f"{found:#010x}, captured as {self.checksum:#010x}"
            )

    def restore(self):
        """A fresh ``(simulator, run_state)`` pair from the payload.

        A payload that passes its checksum but does not unpickle into
        such a pair (state pickled by code whose classes have since
        changed, or bytes that were never a machine) raises
        :class:`SimulationError` naming the snapshot.
        """
        self.verify()
        try:
            simulator, state = pickle.loads(self.payload)
        except Exception as error:
            raise SimulationError(
                f"cannot restore snapshot {self.label!r}: "
                f"{type(error).__name__}: {error}"
            ) from error
        return simulator, state

    def save(self, path: str) -> None:
        """Write atomically: a reader never sees a torn snapshot."""
        directory = os.path.dirname(path) or "."
        os.makedirs(directory, exist_ok=True)
        tmp_path = f"{path}.tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"
        try:
            with open(tmp_path, "wb") as handle:
                pickle.dump(self, handle, protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        finally:
            if os.path.exists(tmp_path):
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass

    @classmethod
    def load(cls, path: str) -> "SimSnapshot":
        """Read and verify a snapshot file.

        Any failure — unreadable file, torn/truncated pickle, a payload
        whose CRC32 disagrees with the captured checksum — surfaces as
        :class:`SimulationError`, never a raw ``pickle``/``EOFError``
        traceback, so callers can quarantine the file and restart the
        run from scratch.
        """
        try:
            with open(path, "rb") as handle:
                snapshot = pickle.load(handle)
        except SimulationError:
            raise
        except Exception as error:
            raise SimulationError(
                f"cannot read snapshot {path!r}: "
                f"{type(error).__name__}: {error}"
            )
        if not isinstance(snapshot, cls):
            raise SimulationError(
                f"{path!r} does not contain a simulation snapshot"
            )
        snapshot.verify()
        return snapshot

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)
        # Snapshots written before the checksum slot existed verify
        # against their own payload (no integrity claim either way).
        if "checksum" not in state:
            self.checksum = zlib.crc32(self.payload) & 0xFFFFFFFF
        # Snapshots written before sampling existed were all detailed.
        if "mode" not in state:
            self.mode = "detailed"

    def __repr__(self) -> str:
        return (
            f"SimSnapshot({self.label!r} @ cycle {self.cycle}, "
            f"{self.records_consumed} records, "
            f"{len(self.payload)} bytes)"
        )


def run_mode(config) -> str:
    """The snapshot mode tag of a run of ``config``."""
    return "detailed" if config.sampling is None else "sampled"


def fast_forward(
    trace: Iterable[TraceRecord], records_consumed: int
) -> Iterator[TraceRecord]:
    """Skip the records a snapshotted run already consumed."""
    return itertools.islice(iter(trace), records_consumed, None)


def resume_run(
    snapshot: SimSnapshot,
    trace: Iterable[TraceRecord],
    label: Optional[str] = None,
    snapshot_every: Optional[int] = None,
    snapshot_sink=None,
    on_restore: Optional[Callable] = None,
):
    """Continue a snapshotted run, detailed or sampled, to completion.

    ``trace`` must be (a fresh instance of) the same deterministic trace
    the original run consumed; the first ``snapshot.records_consumed``
    records are skipped.  Returns the same
    :class:`~repro.sim.results.SimulationResult` an uninterrupted run
    would, with ``extra["resumed_from_cycle"]`` marking the seam.
    ``on_restore``, when given, receives the restored simulator before
    any record is pulled.

    The snapshot's ``mode`` tag must match the restored machine's config
    (:func:`run_mode`); a mismatch raises
    :class:`~repro.errors.IntegrityError`.
    """
    simulator, state = snapshot.restore()
    mode = run_mode(simulator.config)
    if snapshot.mode != mode:
        raise IntegrityError(
            f"snapshot {snapshot.label!r} is tagged {snapshot.mode!r} but "
            f"its machine runs in {mode!r} mode; refusing a cross-mode "
            "resume",
            invariant="snapshot.mode",
        )
    if on_restore is not None:
        on_restore(simulator)
    result = simulator._drive(
        state,
        fast_forward(trace, snapshot.records_consumed),
        label if label is not None else snapshot.label,
        snapshot_every=snapshot_every,
        snapshot_sink=snapshot_sink,
    )
    result.extra["resumed_from_cycle"] = float(snapshot.cycle)
    return result
