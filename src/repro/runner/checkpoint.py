"""Campaign persistence: JSON-lines checkpoints and the manifest.

A campaign directory holds two files:

``checkpoint.jsonl``
    One JSON object per *terminal* run outcome (``ok``, ``failed``, or
    ``poisoned``), appended the moment the outcome is known and flushed
    to disk, so a killed campaign loses at most the points that were in
    flight.  Every line carries its own CRC32 (the ``crc32`` field,
    computed over the rest of the object), so replay can tell a
    bit-flipped line from a merely torn one.  Entries land in
    *completion* order, which differs from spec order whenever points
    overlap (several workers, or a retry backing off while later points
    run); replay is keyed by ``run_id`` (last entry wins; torn or
    corrupt lines are skipped), so an out-of-order file resumes exactly
    like an in-order one.  On ``--resume`` the runner replays this file and
    skips every point whose ``run_id`` and spec fingerprint match.

    Appends are built to survive a hostile filesystem: a failed append
    (ENOSPC, EIO, an injected chaos fault) queues the entry in memory
    and :meth:`CheckpointStore.flush_pending` retries it before the
    manifest is written; a torn trailing fragment left by a previous
    failure is healed by the next append, which starts on a fresh line.

``manifest.json``
    A human-readable summary rewritten at the end of every run (and on
    interrupt): totals, per-failure records with their error taxonomy
    kind, and the campaign status.  The rewrite is atomic (temp file +
    ``os.replace``), so a kill mid-rewrite leaves the previous manifest
    intact rather than a truncated one.

Results round-trip exactly: :func:`result_to_dict` /
:func:`result_from_dict` serialize every field of
:class:`~repro.sim.results.SimulationResult`, and JSON floats preserve
value identity, so a resumed campaign reports bit-identical numbers to
an uninterrupted one.
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import json
import os
import shutil
import uuid
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.ioutil import atomic_write, crc32_of
from repro.runner.chaos import ChaosEngine
from repro.sim.results import SimulationResult

CHECKPOINT_NAME = "checkpoint.jsonl"
MANIFEST_NAME = "manifest.json"


def result_to_dict(result: SimulationResult) -> Dict[str, Any]:
    return dataclasses.asdict(result)


def result_from_dict(data: Dict[str, Any]) -> SimulationResult:
    known = {field.name for field in dataclasses.fields(SimulationResult)}
    return SimulationResult(**{k: v for k, v in data.items() if k in known})


def spec_fingerprint(*parts: Any) -> str:
    """Stable digest of a run's defining inputs.

    Every part is a frozen dataclass (config, workload/trace spec, fault
    schedule), a number or ``None``, each with a deterministic
    ``repr``, so the digest covers every input a run reads.
    """
    canonical = "|".join(repr(part) for part in parts)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def encode_entry(entry: Dict[str, Any]) -> str:
    """Serialize a checkpoint entry with its per-line CRC32 field.

    The checksum covers the canonical (sorted-keys) serialization of
    every field *except* ``crc32`` itself; :func:`decode_entry` strips
    and verifies it.
    """
    body = json.dumps(
        {k: v for k, v in entry.items() if k != "crc32"}, sort_keys=True
    )
    checksum = crc32_of(body.encode())
    payload = dict(entry)
    payload["crc32"] = f"{checksum:08x}"
    return json.dumps(payload, sort_keys=True)


def decode_entry(
    line: str,
) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
    """Parse one checkpoint line; ``(entry, problem)``.

    ``problem`` is ``None`` for a valid line, else ``"json"`` (does not
    parse — a torn write), ``"crc"`` (parses but the embedded CRC32 is
    missing or disagrees — bit rot), or ``"shape"`` (valid JSON that is
    not a ``run_id``-keyed object).
    """
    try:
        entry = json.loads(line)
    except json.JSONDecodeError:
        return None, "json"
    if not isinstance(entry, dict) or "run_id" not in entry:
        return None, "shape"
    stored = entry.pop("crc32", None)
    body = json.dumps(entry, sort_keys=True)
    if f"{crc32_of(body.encode()):08x}" != stored:
        return None, "crc"
    return entry, None


def iter_checkpoint_lines(
    path: str,
) -> Iterator[Tuple[int, str, Optional[Dict[str, Any]], Optional[str]]]:
    """Yield ``(line_number, line, entry, problem)`` for a checkpoint.

    Shared by replay (:meth:`CheckpointStore.load`) and the offline
    auditor, so both agree on exactly which lines count.  Blank lines
    are skipped; ``line_number`` is 1-based.
    """
    if not os.path.exists(path):
        return
    with open(path) as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            entry, problem = decode_entry(line)
            yield number, line, entry, problem


class CheckpointStore:
    """Append-only record of terminal run outcomes in a campaign dir.

    An optional :class:`~repro.runner.chaos.ChaosEngine` injects
    append/manifest faults; the store's own recovery machinery
    (pending-entry queue, newline healing, atomic manifest writes) is
    what the chaos tests exercise.
    """

    def __init__(
        self,
        campaign_dir: str,
        chaos: Optional[ChaosEngine] = None,
    ) -> None:
        self.campaign_dir = campaign_dir
        os.makedirs(campaign_dir, exist_ok=True)
        self.checkpoint_path = os.path.join(campaign_dir, CHECKPOINT_NAME)
        self.manifest_path = os.path.join(campaign_dir, MANIFEST_NAME)
        self.chaos = chaos
        #: Entries whose append failed, awaiting :meth:`flush_pending`.
        self._pending: List[Dict[str, Any]] = []
        #: Total append attempts that raised (including injected ones).
        self.append_failures = 0

    def clear(self) -> None:
        """Start a fresh campaign: drop any previous checkpoint/manifest
        and any stale within-run snapshots."""
        for path in (self.checkpoint_path, self.manifest_path):
            if os.path.exists(path):
                os.remove(path)
        snapshots = os.path.join(self.campaign_dir, "snapshots")
        if os.path.isdir(snapshots):
            shutil.rmtree(snapshots, ignore_errors=True)

    @property
    def pending_ids(self) -> List[str]:
        """``run_id``\\ s of entries still waiting for a durable append."""
        return [entry.get("run_id", "?") for entry in self._pending]

    def append(self, entry: Dict[str, Any]) -> bool:
        """Durably record one terminal outcome.

        Returns True when the entry reached disk.  On any ``OSError``
        (disk full, I/O error, injected chaos) the entry is queued for
        :meth:`flush_pending` and False is returned — a failing disk
        degrades durability, it never aborts the campaign.
        """
        line = encode_entry(entry) + "\n"
        fault = self.chaos.checkpoint_fault() if self.chaos else None
        try:
            if fault == "enospc":
                raise OSError(errno.ENOSPC, "injected: no space left")
            with open(self.checkpoint_path, "a+b") as handle:
                # Heal a torn trailing fragment from an earlier failed
                # append: start this entry on a fresh line so the
                # fragment stays confined to its own (CRC-rejected) line.
                handle.seek(0, os.SEEK_END)
                if handle.tell() > 0:
                    handle.seek(-1, os.SEEK_END)
                    if handle.read(1) != b"\n":
                        handle.write(b"\n")
                if fault == "torn":
                    handle.write(line.encode()[: max(1, len(line) // 2)])
                    handle.flush()
                    os.fsync(handle.fileno())
                    raise OSError(errno.EIO, "injected: torn write")
                handle.write(line.encode())
                handle.flush()
                os.fsync(handle.fileno())
            return True
        except OSError:
            self.append_failures += 1
            self._pending.append(dict(entry))
            return False

    def flush_pending(self) -> int:
        """Retry every queued append; return how many are still stuck.

        Called before the manifest is written, so a transient disk
        failure (or an injected one) costs nothing: the checkpoint ends
        complete and the manifest's ``checkpoint_gaps`` list is empty.
        """
        still_pending = list(self._pending)
        self._pending = []
        for entry in still_pending:
            self.append(entry)
        return len(self._pending)

    def load(self) -> Dict[str, Dict[str, Any]]:
        """Replay the checkpoint: ``run_id`` -> latest terminal entry.

        Tolerates a truncated final line (the writer may have been
        killed mid-append) and skips lines whose CRC32 does not verify;
        later entries for the same ``run_id`` supersede earlier ones.
        """
        entries: Dict[str, Dict[str, Any]] = {}
        for __, __, entry, problem in iter_checkpoint_lines(
            self.checkpoint_path
        ):
            if problem is None and entry is not None:
                entries[entry["run_id"]] = entry
        return entries

    def write_manifest(
        self,
        status: str,
        total: int,
        completed: Iterable[str],
        resumed: Iterable[str],
        failures: Iterable[Dict[str, Any]],
        extra: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Atomically rewrite ``manifest.json``; return its payload.

        ``failures`` entries with ``"status": "poisoned"`` are tallied
        separately from ordinary failures.  Raises ``OSError`` when the
        write cannot complete (including an injected torn-manifest
        fault) — the previous manifest, if any, is left untouched.
        """
        failures = list(failures)
        poisoned = sum(
            1 for record in failures if record.get("status") == "poisoned"
        )
        manifest: Dict[str, Any] = {
            "status": status,
            "total_points": total,
            "ok": len(list(completed)),
            "failed": len(failures) - poisoned,
            "poisoned": poisoned,
            "resumed_from_checkpoint": len(list(resumed)),
            "failures": failures,
        }
        if extra:
            manifest.update(extra)
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        if self.chaos and self.chaos.manifest_fault():
            # Simulate a kill mid-rewrite: the temp file is torn and the
            # os.replace never happens.  Atomicity means the previous
            # manifest survives; the torn temp is audit-visible litter.
            tmp_path = (
                f"{self.manifest_path}.tmp."
                f"{os.getpid()}.{uuid.uuid4().hex[:8]}"
            )
            with open(tmp_path, "w") as handle:
                handle.write(text[: len(text) // 2])
            raise OSError(errno.EIO, "injected: torn manifest write")
        atomic_write(self.manifest_path, text)
        return manifest
