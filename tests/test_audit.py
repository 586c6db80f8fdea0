"""The offline campaign auditor (``repro-sim audit``).

Each tampering scenario drives one audit rule: a clean campaign passes,
recovered damage surfaces as warnings, and every way the artifacts can
*disagree with each other* is an error with a stable issue code.
"""

import json
import os

import pytest

from repro.runner import (
    CHECKPOINT_NAME,
    MANIFEST_NAME,
    CampaignRunner,
    CheckpointStore,
    FaultSpec,
    RunSpec,
    WorkloadSpec,
    audit_campaign,
)
from repro.runner.checkpoint import encode_entry
from repro.sim import baseline_config, stride_config

INSTRUCTIONS = 1_000
WARMUP = 200


def _spec(run_id, config=None, faults=None, seed=1):
    return RunSpec(
        run_id=run_id,
        config=config if config is not None else baseline_config(),
        trace=WorkloadSpec("health", seed=seed),
        max_instructions=INSTRUCTIONS,
        warmup_instructions=WARMUP,
        faults=faults,
    )


@pytest.fixture(scope="module")
def campaign_dir(tmp_path_factory):
    """One real mixed campaign every test copies before tampering."""
    directory = tmp_path_factory.mktemp("audited") / "camp"
    CampaignRunner(str(directory), isolation="inline").run(
        [
            _spec("ok1"),
            _spec("ok2", stride_config()),
            _spec("bad", faults=FaultSpec(crash_at=100)),
        ]
    )
    return directory


@pytest.fixture()
def camp(campaign_dir, tmp_path):
    """A private tamperable copy of the reference campaign."""
    import shutil

    target = tmp_path / "camp"
    shutil.copytree(campaign_dir, target)
    return target


def _codes(report):
    return [issue.code for issue in report.issues]


def _edit_manifest(camp, mutate):
    path = camp / MANIFEST_NAME
    manifest = json.loads(path.read_text())
    mutate(manifest)
    path.write_text(json.dumps(manifest))


def _append_entry(camp, entry):
    with open(camp / CHECKPOINT_NAME, "a") as handle:
        handle.write(encode_entry(entry) + "\n")


class TestCleanCampaign:
    def test_passes_with_no_issues(self, camp):
        report = audit_campaign(str(camp))
        assert report.ok
        assert report.issues == []
        assert report.stats["checkpoint_entries"] == 3
        assert report.stats["entries_ok"] == 2
        assert report.stats["entries_failed"] == 1
        assert "PASS" in report.summary()

    def test_missing_directory_is_an_error(self, tmp_path):
        report = audit_campaign(str(tmp_path / "nowhere"))
        assert _codes(report) == ["campaign.missing"]
        assert not report.ok


class TestCheckpointRules:
    def test_torn_line_is_a_warning(self, camp):
        with open(camp / CHECKPOINT_NAME, "a") as handle:
            handle.write('{"run_id": "torn", "status"')
        report = audit_campaign(str(camp))
        assert report.ok  # recovered damage, not a lie
        assert _codes(report) == ["checkpoint.line.json"]
        assert report.stats["checkpoint_corrupt_lines"] == 1

    def test_bit_rotted_line_is_a_warning(self, camp):
        path = camp / CHECKPOINT_NAME
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace('"attempts": 1', '"attempts": 8')
        # Rotting an entry drops it from replay, so the manifest now
        # over-counts relative to the checkpoint — within gap slack 0
        # that is also an error, which is exactly the point: silent
        # corruption must not audit clean.
        path.write_text("\n".join(lines) + "\n")
        report = audit_campaign(str(camp))
        assert "checkpoint.line.crc" in _codes(report)

    def test_duplicate_entry_same_fingerprint_is_flagged(self, camp):
        original = json.loads(
            (camp / CHECKPOINT_NAME).read_text().splitlines()[0]
        )
        original.pop("crc32", None)
        _append_entry(camp, original)
        report = audit_campaign(str(camp))
        assert "checkpoint.duplicate" in _codes(report)
        assert report.ok

    def test_shared_fingerprint_across_run_ids_is_flagged(self, camp):
        clone = json.loads(
            (camp / CHECKPOINT_NAME).read_text().splitlines()[0]
        )
        clone.pop("crc32", None)
        clone["run_id"] = "ok1-again"
        _append_entry(camp, clone)
        report = audit_campaign(str(camp))
        assert "checkpoint.fingerprint.shared" in _codes(report)

    def test_unknown_status_is_an_error(self, camp):
        _append_entry(
            camp,
            {"run_id": "weird", "status": "maybe", "fingerprint": "f"},
        )
        report = audit_campaign(str(camp))
        assert "entry.status" in _codes(report)
        assert not report.ok

    def test_ok_entry_without_result_is_an_error(self, camp):
        _append_entry(
            camp,
            {"run_id": "hollow", "status": "ok", "fingerprint": "f",
             "result": None},
        )
        report = audit_campaign(str(camp))
        assert "entry.result.missing" in _codes(report)

    def test_tampered_result_breaks_roundtrip(self, camp):
        path = camp / CHECKPOINT_NAME
        lines = path.read_text().splitlines()
        entry = json.loads(lines[0])
        entry.pop("crc32", None)
        assert entry["status"] == "ok"
        # A field result_from_dict does not preserve: silent extras.
        entry["result"]["not_a_simulation_field"] = 1
        lines[0] = encode_entry(entry)
        path.write_text("\n".join(lines) + "\n")
        report = audit_campaign(str(camp))
        assert "entry.result.roundtrip" in _codes(report)
        assert not report.ok

    def test_failed_entry_without_error_detail_is_an_error(self, camp):
        _append_entry(
            camp,
            {"run_id": "mute", "status": "failed", "fingerprint": "f",
             "error": {"kind": "SimulationError"}},
        )
        report = audit_campaign(str(camp))
        assert "entry.error.missing" in _codes(report)

    def test_fully_unreadable_checkpoint_is_an_error(self, camp):
        (camp / CHECKPOINT_NAME).write_text("garbage\nmore garbage\n")
        report = audit_campaign(str(camp))
        assert "checkpoint.unreadable" in _codes(report)
        assert not report.ok


class TestManifestRules:
    def test_missing_manifest_is_an_error(self, camp):
        os.unlink(camp / MANIFEST_NAME)
        report = audit_campaign(str(camp))
        assert _codes(report) == ["manifest.missing"]

    def test_truncated_manifest_is_an_error(self, camp):
        text = (camp / MANIFEST_NAME).read_text()
        (camp / MANIFEST_NAME).write_text(text[: len(text) // 2])
        report = audit_campaign(str(camp))
        assert _codes(report) == ["manifest.unreadable"]

    def test_inflated_ok_count_is_an_error(self, camp):
        _edit_manifest(camp, lambda m: m.update(ok=m["ok"] + 1))
        report = audit_campaign(str(camp))
        assert "manifest.ok.count" in _codes(report)
        assert "manifest.tally.ok" in _codes(report)

    def test_unbacked_metric_is_an_error(self, camp):
        def mutate(manifest):
            manifest["metrics"]["ghost"] = manifest["metrics"]["ok1"]
            manifest["ok"] += 1

        _edit_manifest(camp, mutate)
        report = audit_campaign(str(camp))
        assert "manifest.ok.unbacked" in _codes(report)

    def test_status_flip_is_an_error(self, camp):
        # The checkpoint says "bad" failed; claim it succeeded.
        def mutate(manifest):
            record = manifest["failures"].pop()
            manifest["failed"] -= 1
            manifest["ok"] += 1
            manifest["metrics"][record["run_id"]] = manifest["metrics"]["ok1"]

        _edit_manifest(camp, mutate)
        report = audit_campaign(str(camp))
        assert "manifest.ok.disagrees" in _codes(report)
        assert not report.ok

    def test_fabricated_failure_is_an_error(self, camp):
        def mutate(manifest):
            manifest["failures"].append(
                {"run_id": "ok1", "status": "failed",
                 "kind": "SimulationError", "message": "no it didn't"}
            )

        _edit_manifest(camp, mutate)
        report = audit_campaign(str(camp))
        assert "manifest.failure.disagrees" in _codes(report)

    def test_wrong_total_is_an_error(self, camp):
        _edit_manifest(camp, lambda m: m.update(total_points=5))
        report = audit_campaign(str(camp))
        assert "manifest.total" in _codes(report)

    def test_declared_gap_excuses_a_missing_entry(self, camp):
        # Drop one ok entry from the checkpoint but declare the gap, as
        # the runner does when an append never lands: warning, not error.
        path = camp / CHECKPOINT_NAME
        lines = [
            line for line in path.read_text().splitlines()
            if '"run_id": "ok2"' not in line
        ]
        path.write_text("\n".join(lines) + "\n")
        _edit_manifest(camp, lambda m: m.update(checkpoint_gaps=["ok2"]))
        report = audit_campaign(str(camp))
        assert report.ok, report.summary()
        assert _codes(report) == ["manifest.checkpoint_gaps"]

    def test_undeclared_missing_entry_is_an_error(self, camp):
        path = camp / CHECKPOINT_NAME
        lines = [
            line for line in path.read_text().splitlines()
            if '"run_id": "ok2"' not in line
        ]
        path.write_text("\n".join(lines) + "\n")
        report = audit_campaign(str(camp))
        assert "manifest.ok.unbacked" in _codes(report)
        assert not report.ok


class TestLitterRules:
    def test_stale_snapshot_is_a_warning(self, camp):
        snapshots = camp / "snapshots"
        snapshots.mkdir()
        (snapshots / "deadbeef.snap").write_bytes(b"x")
        report = audit_campaign(str(camp))
        assert _codes(report) == ["snapshot.stale"]
        assert report.stats["snapshots_stale"] == 1

    def test_quarantined_snapshot_is_a_warning(self, camp):
        snapshots = camp / "snapshots"
        snapshots.mkdir()
        (snapshots / "deadbeef.snap.corrupt").write_bytes(b"x")
        report = audit_campaign(str(camp))
        assert _codes(report) == ["snapshot.quarantined"]

    def test_orphaned_manifest_tmp_is_a_warning(self, camp):
        (camp / (MANIFEST_NAME + ".tmp.123.abcd")).write_text("{half")
        report = audit_campaign(str(camp))
        assert _codes(report) == ["manifest.tmp"]


class TestAuditCli:
    def test_pass_and_exit_codes(self, camp, capsys):
        from repro.cli import main

        assert main(["audit", str(camp)]) == 0
        assert "PASS" in capsys.readouterr().out
        _edit_manifest(camp, lambda m: m.update(total_points=9))
        assert main(["audit", str(camp)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_strict_fails_on_warnings(self, camp, capsys):
        from repro.cli import main

        with open(camp / CHECKPOINT_NAME, "a") as handle:
            handle.write('{"torn')
        assert main(["audit", str(camp)]) == 0
        assert main(["audit", str(camp), "--strict"]) == 1
        out = capsys.readouterr().out
        assert "checkpoint.line.json" in out

