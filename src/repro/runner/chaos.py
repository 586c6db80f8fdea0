"""Deterministic environment-level chaos for campaign durability tests.

:mod:`repro.runner.faults` injects faults *inside* a run's trace
stream; this module injects them *around* runs, into the environment a
long-lived campaign actually depends on: the checkpoint file, the
worker pool, the compiled-trace cache, snapshot files, and the
manifest.  A :class:`ChaosSpec` is a frozen, seeded schedule (same
design as :class:`~repro.runner.faults.FaultSpec`); a
:class:`ChaosEngine` is its mutable parent-process counterpart that the
runner and :class:`~repro.runner.checkpoint.CheckpointStore` consult at
each injection point:

- **ENOSPC / torn checkpoint appends** — an append raises ``OSError``
  before (ENOSPC) or after half the line is on disk (torn).  The store
  queues the entry and retries at campaign end; the torn fragment is
  healed by the next append's newline check and skipped by CRC
  validation on replay.
- **worker kills** — the first launch of a ``kill_points`` point (or
  every launch of a ``poison_points`` point) has its worker process
  SIGKILLed right after submission.  Keying on the point's *spec index*
  rather than a global launch counter keeps the ok/poisoned tallies
  independent of parallel scheduling order.
- **cache corruption** — freshly prewarmed compiled traces are
  truncated or bit-flipped before workers load them; the binfmt
  checksum turns that into a transparent recompile.
- **snapshot corruption** — a retry's resume snapshot is bit-flipped
  before the retry reads it; the snapshot CRC turns that into a
  quarantine plus a from-scratch rerun.
- **torn manifest writes** — a scheduled manifest rewrite tears its
  *temp* file and abandons the ``os.replace`` (a kill mid-rewrite);
  atomic writes mean the previous manifest survives untouched.

Everything is a pure function of the spec and the injection-point
counters, so a seeded chaos campaign produces the same fault sequence
— and the same manifest tallies — on every run.
"""

from __future__ import annotations

import os
import random
import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

#: Valid ``ChaosSpec.corrupt_cache`` modes.
CACHE_CORRUPTION_MODES = ("", "truncate", "bitflip")


@dataclass(frozen=True)
class ChaosSpec:
    """Seeded schedule of environment faults around a campaign's runs.

    All indices are 0-based.  ``enospc_appends``/``torn_appends`` count
    checkpoint-append attempts in completion order;
    ``kill_points``/``poison_points`` are *spec-order* point indices
    (scheduling-independent); ``corrupt_snapshot_retries`` counts
    snapshot-resumed retry reschedules; ``torn_manifest_writes`` counts
    manifest rewrites.  An empty tuple (or ``""``) disables that fault.
    """

    #: Seed for the corruption byte/offset choices (not the schedule —
    #: the schedule is explicit in the tuples below).
    seed: int = 0
    #: Checkpoint appends that fail with ENOSPC before writing.
    enospc_appends: Tuple[int, ...] = ()
    #: Checkpoint appends that write half a line, then fail with EIO.
    torn_appends: Tuple[int, ...] = ()
    #: Spec indices whose first worker launch is killed (once).
    kill_points: Tuple[int, ...] = ()
    #: Spec indices whose every worker launch is killed (poisoned).
    poison_points: Tuple[int, ...] = ()
    #: How prewarmed compiled-trace cache entries are damaged.
    corrupt_cache: str = ""
    #: Snapshot-resumed retries whose snapshot file is bit-flipped.
    corrupt_snapshot_retries: Tuple[int, ...] = ()
    #: Manifest rewrites whose temp file is torn (replace abandoned).
    torn_manifest_writes: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for name in (
            "enospc_appends",
            "torn_appends",
            "kill_points",
            "poison_points",
            "corrupt_snapshot_retries",
            "torn_manifest_writes",
        ):
            values = getattr(self, name)
            if any(value < 0 for value in values):
                raise ValueError(f"ChaosSpec.{name}: indices must be >= 0")
        if self.corrupt_cache not in CACHE_CORRUPTION_MODES:
            raise ValueError(
                f"ChaosSpec.corrupt_cache: {self.corrupt_cache!r} is not "
                f"one of {CACHE_CORRUPTION_MODES}"
            )
        overlap = set(self.kill_points) & set(self.poison_points)
        if overlap:
            raise ValueError(
                f"ChaosSpec: points {sorted(overlap)} are in both "
                f"kill_points and poison_points"
            )

    @property
    def is_noop(self) -> bool:
        """True when the spec schedules no fault at all."""
        return (
            not self.enospc_appends
            and not self.torn_appends
            and not self.kill_points
            and not self.poison_points
            and not self.corrupt_cache
            and not self.corrupt_snapshot_retries
            and not self.torn_manifest_writes
        )

    @classmethod
    def scheduled(
        cls,
        seed: int,
        points: int,
        intensity: float = 0.5,
        poison: int = 0,
    ) -> "ChaosSpec":
        """A deterministic fault schedule for a ``points``-long campaign.

        Spreads recoverable faults — one-shot worker kills, ENOSPC and
        torn checkpoint appends, cache bit-flips — over the campaign at
        a density set by ``intensity`` (0..1), and marks ``poison``
        points as unkillable-budget-exhausting.  The same
        ``(seed, points, intensity, poison)`` always yields the same
        spec, so expected ok/failed/poisoned tallies are exact at any
        worker count: everything except the ``poison`` points must end
        ``ok``, and the ``poison`` points ``poisoned``.
        """
        if points <= 0:
            raise ValueError("ChaosSpec.scheduled: points must be > 0")
        if not 0.0 <= intensity <= 1.0:
            raise ValueError("ChaosSpec.scheduled: intensity must be in 0..1")
        if not 0 <= poison <= points:
            raise ValueError(
                "ChaosSpec.scheduled: poison must be in 0..points"
            )
        rng = random.Random(seed)
        indices = list(range(points))
        rng.shuffle(indices)
        poison_points = tuple(sorted(indices[:poison]))
        survivors = indices[poison:]
        kill_count = (
            min(len(survivors), max(1, round(len(survivors) * intensity / 2)))
            if intensity > 0 and survivors
            else 0
        )
        kill_points = tuple(sorted(survivors[:kill_count]))
        # Fault some of the first `points` appends: every point appends
        # at least once, so these indices are guaranteed to fire.
        append_budget = (
            max(1, round(points * intensity / 2)) if intensity > 0 else 0
        )
        append_indices = list(range(points))
        rng.shuffle(append_indices)
        enospc = tuple(sorted(append_indices[:append_budget]))
        torn = tuple(
            sorted(append_indices[append_budget : 2 * append_budget])
        )
        return cls(
            seed=seed,
            enospc_appends=enospc,
            torn_appends=torn,
            kill_points=kill_points,
            poison_points=poison_points,
            corrupt_cache="bitflip" if intensity > 0 else "",
        )


def corrupt_binary_file(path: str, mode: str, seed: int = 0) -> None:
    """Deterministically damage the binary file at ``path``.

    ``mode="truncate"`` cuts the file to 60% of its size;
    ``mode="bitflip"`` flips one seeded bit somewhere in the file.
    Used by the chaos engine against compiled traces and snapshots —
    both damages must be caught by the artifact's checksum on load.
    """
    if mode not in ("truncate", "bitflip"):
        raise ValueError(f"corrupt_binary_file: unknown mode {mode!r}")
    size = os.path.getsize(path)
    if size == 0:
        return
    if mode == "truncate":
        with open(path, "r+b") as handle:
            handle.truncate(max(1, (size * 3) // 5))
        return
    rng = random.Random(seed ^ zlib.crc32(os.path.basename(path).encode()))
    offset = rng.randrange(size)
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ (1 << rng.randrange(8))]))


class ChaosEngine:
    """Parent-process consumer of a :class:`ChaosSpec`.

    Owns the injection-point counters (append index, retry index,
    manifest-write index, per-point kill tallies live in the runner)
    and an event log; :meth:`summary` is embedded in the campaign
    manifest so an auditor can see exactly which faults fired.
    """

    def __init__(self, spec: ChaosSpec) -> None:
        self.spec = spec
        self.events: List[str] = []
        self.counters: Dict[str, int] = {
            "checkpoint_enospc": 0,
            "checkpoint_torn": 0,
            "worker_kills": 0,
            "cache_corrupted": 0,
            "snapshots_corrupted": 0,
            "manifest_torn": 0,
        }
        self._append_index = 0
        self._retry_index = 0
        self._manifest_index = 0

    def _record(self, counter: str, event: str) -> None:
        self.counters[counter] += 1
        self.events.append(event)

    def checkpoint_fault(self) -> Optional[str]:
        """Consume one append attempt; the fault to inject, if any.

        Returns ``"enospc"``, ``"torn"``, or ``None``.  When an index
        is scheduled for both, ENOSPC wins (the write never starts).
        """
        index = self._append_index
        self._append_index += 1
        if index in self.spec.enospc_appends:
            self._record(
                "checkpoint_enospc", f"append {index}: injected ENOSPC"
            )
            return "enospc"
        if index in self.spec.torn_appends:
            self._record(
                "checkpoint_torn", f"append {index}: injected torn write"
            )
            return "torn"
        return None

    def kill_attempt(self, point_index: int, worker_kills: int) -> bool:
        """Should this launch of spec point ``point_index`` be killed?

        ``worker_kills`` is how many times the point's worker has
        already been killed: a ``kill_points`` point dies only on its
        first launch, a ``poison_points`` point dies on every launch.
        """
        if point_index in self.spec.poison_points:
            self._record(
                "worker_kills",
                f"point {point_index}: killed worker (poison, "
                f"kill #{worker_kills + 1})",
            )
            return True
        if point_index in self.spec.kill_points and worker_kills == 0:
            self._record(
                "worker_kills", f"point {point_index}: killed worker once"
            )
            return True
        return False

    def corrupt_cache_entries(self, paths: Iterable[str]) -> int:
        """Damage the given prewarmed cache entries; return how many."""
        if not self.spec.corrupt_cache:
            return 0
        damaged = 0
        for path in paths:
            try:
                corrupt_binary_file(
                    path, self.spec.corrupt_cache, seed=self.spec.seed
                )
            except OSError:
                continue
            damaged += 1
            self._record(
                "cache_corrupted",
                f"cache entry {os.path.basename(path)}: "
                f"{self.spec.corrupt_cache}",
            )
        return damaged

    def maybe_corrupt_snapshot(self, path: str) -> bool:
        """Consume one retry reschedule; bit-flip its snapshot if due."""
        index = self._retry_index
        self._retry_index += 1
        if index not in self.spec.corrupt_snapshot_retries:
            return False
        if not os.path.exists(path):
            return False
        try:
            corrupt_binary_file(path, "bitflip", seed=self.spec.seed)
        except OSError:
            return False
        self._record(
            "snapshots_corrupted",
            f"retry {index}: bit-flipped snapshot "
            f"{os.path.basename(path)}",
        )
        return True

    def manifest_fault(self) -> bool:
        """Consume one manifest rewrite; True when it should tear."""
        index = self._manifest_index
        self._manifest_index += 1
        if index in self.spec.torn_manifest_writes:
            self._record(
                "manifest_torn", f"manifest write {index}: torn temp file"
            )
            return True
        return False

    def summary(self) -> Dict[str, object]:
        """The JSON-able chaos record embedded in the manifest."""
        return {
            "seed": self.spec.seed,
            "counters": dict(self.counters),
            "events": list(self.events),
        }
