"""Offline consistency audit of a campaign directory.

``repro-sim audit <campaign-dir>`` (and :func:`audit_campaign` behind
it) re-derives the campaign's state from its artifacts alone — no
specs, no live runner — and cross-checks every layer of the
persistence story the runner tells:

- every ``checkpoint.jsonl`` line parses and its per-line CRC32
  verifies (torn or bit-flipped lines are reported, not silently
  replayed);
- ``run_id`` replay is coherent: duplicate entries are last-wins by
  design, but duplicates whose spec fingerprints *differ* are flagged,
  as are distinct run_ids sharing one fingerprint;
- every ``ok`` entry's result round-trips exactly through
  :func:`~repro.runner.checkpoint.result_from_dict` /
  :func:`~repro.runner.checkpoint.result_to_dict` — the bit-identical
  resume guarantee, checked offline;
- every ``failed``/``poisoned`` entry carries its error taxonomy kind
  and message;
- ``manifest.json`` exists, parses, and agrees with the replayed
  checkpoint: ok/failed/poisoned tallies, per-point metrics keys, and
  failure records all line up, with appends the manifest *declared*
  lost (``checkpoint_gaps``) excused;
- leftover within-run snapshots, quarantined (``.corrupt``) artifacts,
  and orphaned temp files are surfaced.

Verification failures are **errors** (the directory lies about its
campaign); recoverable damage the runner already survived — a CRC-
rejected line, a quarantined snapshot — surfaces as **warnings**.
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.runner.checkpoint import (
    CHECKPOINT_NAME,
    MANIFEST_NAME,
    iter_checkpoint_lines,
    result_from_dict,
    result_to_dict,
)

__all__ = [
    "AuditIssue",
    "AuditReport",
    "audit_campaign",
]

#: Terminal statuses a checkpoint entry may carry.
_TERMINAL_STATUSES = ("ok", "failed", "poisoned")


@dataclass(frozen=True)
class AuditIssue:
    """One audit finding: a severity, a stable code, and the detail."""

    severity: str  # "error" | "warning"
    code: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.code}: {self.message}"


@dataclass
class AuditReport:
    """Everything :func:`audit_campaign` found in one directory."""

    campaign_dir: str
    issues: List[AuditIssue] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def errors(self) -> List[AuditIssue]:
        """The findings that make the directory untrustworthy."""
        return [i for i in self.issues if i.severity == "error"]

    @property
    def warnings(self) -> List[AuditIssue]:
        """Recoverable damage and litter worth a look."""
        return [i for i in self.issues if i.severity == "warning"]

    @property
    def ok(self) -> bool:
        """True when no error-severity issue was found."""
        return not self.errors

    def summary(self) -> str:
        """A human-readable multi-line report."""
        lines = [
            f"audit {self.campaign_dir}: "
            f"{'PASS' if self.ok else 'FAIL'} "
            f"({len(self.errors)} errors, {len(self.warnings)} warnings)"
        ]
        for key in sorted(self.stats):
            lines.append(f"  {key}: {self.stats[key]}")
        for issue in self.issues:
            lines.append(f"  {issue}")
        return "\n".join(lines)

    def _add(self, severity: str, code: str, message: str) -> None:
        self.issues.append(AuditIssue(severity, code, message))


def audit_campaign(campaign_dir: str) -> AuditReport:
    """Verify a campaign directory's artifacts against each other."""
    report = AuditReport(campaign_dir=campaign_dir)
    if not os.path.isdir(campaign_dir):
        report._add(
            "error", "campaign.missing",
            f"{campaign_dir!r} is not a directory",
        )
        return report
    entries = _audit_checkpoint(report)
    manifest = _audit_manifest(report)
    if manifest is not None:
        _cross_check(report, entries, manifest)
    _audit_litter(report)
    return report


def _audit_checkpoint(report: AuditReport) -> Dict[str, Dict[str, Any]]:
    """Replay the checkpoint, flagging bad lines; run_id -> last entry."""
    path = os.path.join(report.campaign_dir, CHECKPOINT_NAME)
    entries: Dict[str, Dict[str, Any]] = {}
    fingerprints: Dict[str, str] = {}
    lines = corrupt = 0
    for number, line, entry, problem in iter_checkpoint_lines(path):
        lines += 1
        if problem is not None:
            corrupt += 1
            detail = {
                "json": "does not parse (torn write)",
                "crc": "CRC32 mismatch (bit rot)",
                "shape": "not a run-keyed object",
            }[problem]
            report._add(
                "warning", f"checkpoint.line.{problem}",
                f"{CHECKPOINT_NAME} line {number}: {detail}",
            )
            continue
        assert entry is not None
        run_id = entry["run_id"]
        fingerprint = entry.get("fingerprint", "")
        if run_id in entries:
            # Last-wins duplicates are by design (a resumed campaign
            # re-runs a fingerprint-mismatched point); two entries for
            # one run_id with the *same* fingerprint mean the runner
            # recorded one point terminal twice.
            if fingerprints.get(run_id) == fingerprint:
                report._add(
                    "warning", "checkpoint.duplicate",
                    f"run {run_id!r}: duplicate entry with identical "
                    f"fingerprint at line {number} (last wins)",
                )
        entries[run_id] = entry
        fingerprints[run_id] = fingerprint
        _audit_entry(report, entry)
    shared: Dict[str, List[str]] = {}
    for run_id, fingerprint in fingerprints.items():
        shared.setdefault(fingerprint, []).append(run_id)
    for fingerprint, run_ids in shared.items():
        if fingerprint and len(run_ids) > 1:
            report._add(
                "warning", "checkpoint.fingerprint.shared",
                f"runs {sorted(run_ids)} share fingerprint "
                f"{fingerprint} (identical inputs recorded under "
                f"multiple ids)",
            )
    if lines and not entries:
        report._add(
            "error", "checkpoint.unreadable",
            f"{CHECKPOINT_NAME} has {lines} lines but none replay",
        )
    report.stats["checkpoint_lines"] = lines
    report.stats["checkpoint_corrupt_lines"] = corrupt
    report.stats["checkpoint_entries"] = len(entries)
    for status in _TERMINAL_STATUSES:
        report.stats[f"entries_{status}"] = sum(
            1 for e in entries.values() if e.get("status") == status
        )
    return entries


def _audit_entry(report: AuditReport, entry: Dict[str, Any]) -> None:
    """Validate one replayed entry's internal consistency."""
    run_id = entry["run_id"]
    status = entry.get("status")
    if status not in _TERMINAL_STATUSES:
        report._add(
            "error", "entry.status",
            f"run {run_id!r}: unknown terminal status {status!r}",
        )
        return
    if status == "ok":
        payload = entry.get("result")
        if not isinstance(payload, dict):
            report._add(
                "error", "entry.result.missing",
                f"run {run_id!r}: status ok but no result payload",
            )
            return
        try:
            round_tripped = result_to_dict(result_from_dict(payload))
        except Exception as error:
            report._add(
                "error", "entry.result.load",
                f"run {run_id!r}: result does not deserialize: "
                f"{type(error).__name__}: {error}",
            )
            return
        if round_tripped != payload:
            report._add(
                "error", "entry.result.roundtrip",
                f"run {run_id!r}: result does not round-trip "
                f"(bit-identical resume is broken for this entry)",
            )
    else:
        error_record = entry.get("error") or {}
        if not error_record.get("kind") or not error_record.get("message"):
            report._add(
                "error", "entry.error.missing",
                f"run {run_id!r}: status {status} but no error "
                f"kind/message",
            )


def _audit_manifest(report: AuditReport) -> Optional[Dict[str, Any]]:
    """Load and shape-check the manifest; None when unusable."""
    path = os.path.join(report.campaign_dir, MANIFEST_NAME)
    if not os.path.exists(path):
        report._add(
            "error", "manifest.missing",
            f"{MANIFEST_NAME} not found (campaign never finished a "
            f"write, or its final write was lost)",
        )
        return None
    try:
        with open(path) as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        report._add(
            "error", "manifest.unreadable",
            f"{MANIFEST_NAME}: {type(error).__name__}: {error}",
        )
        return None
    if not isinstance(manifest, dict):
        report._add(
            "error", "manifest.shape",
            f"{MANIFEST_NAME} is not a JSON object",
        )
        return None
    return manifest


def _cross_check(
    report: AuditReport,
    entries: Dict[str, Dict[str, Any]],
    manifest: Dict[str, Any],
) -> None:
    """Do the checkpoint and the manifest tell the same story?"""
    gaps = set(manifest.get("checkpoint_gaps") or [])
    if gaps:
        report._add(
            "warning", "manifest.checkpoint_gaps",
            f"manifest declares {len(gaps)} checkpoint appends lost: "
            f"{sorted(gaps)}",
        )
    tallies = {
        status: sum(
            1 for e in entries.values() if e.get("status") == status
        )
        for status in _TERMINAL_STATUSES
    }
    failure_records = manifest.get("failures") or []
    failed_ids = {
        record.get("run_id"): record for record in failure_records
    }
    manifest_poisoned = manifest.get("poisoned", 0)
    # ok-side agreement: the metrics map is keyed by completed run_id.
    metrics = manifest.get("metrics")
    if isinstance(metrics, dict):
        if len(metrics) != manifest.get("ok"):
            report._add(
                "error", "manifest.ok.count",
                f"manifest says ok={manifest.get('ok')} but lists "
                f"{len(metrics)} per-point metrics",
            )
        for run_id in metrics:
            entry = entries.get(run_id)
            if entry is None:
                if run_id not in gaps:
                    report._add(
                        "error", "manifest.ok.unbacked",
                        f"run {run_id!r}: manifest says ok but the "
                        f"checkpoint has no entry (and no declared gap)",
                    )
            elif entry.get("status") != "ok":
                report._add(
                    "error", "manifest.ok.disagrees",
                    f"run {run_id!r}: manifest says ok, checkpoint "
                    f"says {entry.get('status')!r}",
                )
    for run_id, record in failed_ids.items():
        entry = entries.get(run_id)
        if entry is None:
            if run_id not in gaps:
                report._add(
                    "error", "manifest.failure.unbacked",
                    f"run {run_id!r}: manifest records a failure but "
                    f"the checkpoint has no entry (and no declared gap)",
                )
        elif entry.get("status") == "ok":
            report._add(
                "error", "manifest.failure.disagrees",
                f"run {run_id!r}: manifest records a failure, "
                f"checkpoint says ok",
            )
    # Tally agreement, modulo declared gaps (a gap's entry is missing
    # from the checkpoint but counted in the manifest).
    gap_slack = len(gaps)
    for name, checkpoint_count, manifest_count in (
        ("ok", tallies["ok"], manifest.get("ok")),
        ("failed", tallies["failed"], manifest.get("failed")),
        ("poisoned", tallies["poisoned"], manifest_poisoned),
    ):
        if manifest_count is None:
            continue
        if not (
            checkpoint_count <= manifest_count
            <= checkpoint_count + gap_slack
        ):
            report._add(
                "error", f"manifest.tally.{name}",
                f"{name}: checkpoint replays {checkpoint_count}, "
                f"manifest claims {manifest_count} "
                f"({gap_slack} declared gaps)",
            )
    if manifest.get("status") == "complete":
        total = manifest.get("total_points")
        accounted = (
            (manifest.get("ok") or 0)
            + (manifest.get("failed") or 0)
            + manifest_poisoned
        )
        if total is not None and accounted != total:
            report._add(
                "error", "manifest.total",
                f"status complete but ok+failed+poisoned={accounted} "
                f"!= total_points={total}",
            )


def _audit_litter(report: AuditReport) -> None:
    """Surface stale snapshots, quarantines, and orphaned temp files."""
    snapshots_dir = os.path.join(report.campaign_dir, "snapshots")
    stale = sorted(glob.glob(os.path.join(snapshots_dir, "*.snap")))
    quarantined = sorted(
        glob.glob(os.path.join(snapshots_dir, "*.corrupt"))
    )
    tmp_files = sorted(
        glob.glob(os.path.join(report.campaign_dir, MANIFEST_NAME + ".tmp.*"))
    )
    for path in stale:
        report._add(
            "warning", "snapshot.stale",
            f"leftover within-run snapshot {os.path.basename(path)} "
            f"(no terminal outcome discarded it — killed mid-campaign?)",
        )
    for path in quarantined:
        report._add(
            "warning", "snapshot.quarantined",
            f"quarantined corrupt snapshot {os.path.basename(path)} "
            f"(the runner recovered; kept for post-mortem)",
        )
    for path in tmp_files:
        report._add(
            "warning", "manifest.tmp",
            f"orphaned manifest temp file {os.path.basename(path)} "
            f"(a manifest rewrite died before its os.replace)",
        )
    report.stats["snapshots_stale"] = len(stale)
    report.stats["snapshots_quarantined"] = len(quarantined)
    report.stats["manifest_tmp_files"] = len(tmp_files)

