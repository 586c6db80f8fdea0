"""Tests for the command-line interface."""

import json
import os

import pytest

import repro.cli as cli
from repro.cli import MACHINES, main
from repro.trace.io import load_trace
from repro.workloads import WORKLOADS


class TestWorkloadsCommand:
    def test_lists_all_six(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("health", "burg", "deltablue", "gs", "sis", "turb3d"):
            assert name in out


class TestRunCommand:
    def test_runs_baseline(self, capsys):
        code = main(
            ["run", "health", "--machine", "base", "--instructions", "3000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "IPC" in out
        assert "prefetches issued" in out

    def test_runs_psb(self, capsys):
        code = main(
            ["run", "health", "--machine", "psb",
             "--instructions", "8000", "--warmup", "2000"]
        )
        assert code == 0
        assert "prefetch accuracy" in capsys.readouterr().out

    def test_every_machine_name_is_buildable(self):
        for maker in MACHINES.values():
            config = maker()
            assert config.l1_data.size_bytes == 32 * 1024

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["run", "quake"])

    def test_rejects_unknown_machine(self):
        with pytest.raises(SystemExit):
            main(["run", "health", "--machine", "warp-drive"])


class TestCompareCommand:
    def test_prints_all_machines(self, capsys):
        code = main(
            ["compare", "turb3d", "--instructions", "4000", "--warmup", "1000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for name in ("base", "stride", "2miss-rr", "2miss-priority",
                     "confalloc-rr", "psb"):
            assert name in out

    def test_sampled_comparison_writes_a_paired_manifest(
        self, tmp_path, capsys
    ):
        d = tmp_path / "camp"
        code = main(
            ["compare", "health", "--machines", "base,psb",
             "--instructions", "120000", "--sample", "40000:1000:500",
             "--paired-out", str(d / "paired.json")]
        )
        assert code == 0
        rows = capsys.readouterr().out.splitlines()
        assert any(row.split()[:1] == ["base"] for row in rows)
        assert any(row.split()[:1] == ["psb"] for row in rows)
        paired = json.loads((d / "paired.json").read_text())
        assert paired["baseline"] == "base"
        assert list(paired["results"]) == ["base", "psb"]
        out = tmp_path / "paired.md"
        assert main(["report", "--campaign", str(d), "--out", str(out)]) == 0
        assert "## Paired sampling" in out.read_text()

    @pytest.mark.parametrize(
        "machines, named",
        [("warp-drive", "warp-drive"), ("base,psb,base", "more than once")],
    )
    def test_bad_machine_list_exits_one(self, machines, named, capsys):
        code = main(["compare", "health", "--machines", machines])
        assert code == 1
        assert named in capsys.readouterr().err

    def test_paired_out_without_sample_exits_one(self, tmp_path, capsys):
        code = main(
            ["compare", "health", "--instructions", "100",
             "--paired-out", str(tmp_path / "paired.json")]
        )
        assert code == 1
        assert "--paired-out" in capsys.readouterr().err


class TestTraceCommand:
    def test_writes_trace_file(self, tmp_path, capsys):
        path = str(tmp_path / "out.trace")
        code = main(
            ["trace", "burg", "--out", path, "--instructions", "500"]
        )
        assert code == 0
        records = list(load_trace(path))
        assert len(records) == 500
        assert "wrote 500 records" in capsys.readouterr().out


class TestRecordsGeneratedOnce:
    """Every run of a ``compare`` or ``check`` replays one record list."""

    @pytest.fixture
    def generations(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
        health = WORKLOADS["health"]
        generate = health.generate
        calls = []

        def counting(self):
            calls.append(self.seed)
            return generate(self)

        monkeypatch.setattr(health, "generate", counting)
        return calls

    def test_six_machine_compare(self, generations, capsys):
        assert main(["compare", "health", "--instructions", "2000",
                     "--warmup", "500"]) == 0
        assert "confalloc-rr" in capsys.readouterr().out
        assert len(generations) == 1

    def test_check(self, generations):
        assert main(["check", "health", "--instructions", "2000"]) == 0
        assert len(generations) == 1


class TestSweepCommand:
    _FAST = ["--instructions", "2000", "--warmup", "500", "--no-isolate"]

    def test_runs_selected_machines(self, capsys):
        code = main(
            ["sweep", "health", "--machines", "base,psb"] + self._FAST
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "base" in out and "psb" in out and "ok" in out

    def test_writes_campaign_state(self, tmp_path, capsys):
        d = str(tmp_path / "camp")
        code = main(
            ["sweep", "health", "--machines", "base", "--campaign-dir", d]
            + self._FAST
        )
        assert code == 0
        manifest = json.load(open(os.path.join(d, "manifest.json")))
        assert manifest["status"] == "complete"
        assert manifest["ok"] == 1

    def test_resume_skips_completed(self, tmp_path, capsys):
        d = str(tmp_path / "camp")
        args = (
            ["sweep", "health", "--machines", "base", "--campaign-dir", d]
            + self._FAST
        )
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--resume"]) == 0
        assert "resumed" in capsys.readouterr().out

    def test_parallel_workers_all_points_ok(self, tmp_path, capsys):
        d = str(tmp_path / "camp")
        code = main(
            ["sweep", "health", "--machines", "base,stride,psb",
             "--instructions", "2000", "--warmup", "500",
             "--workers", "2", "--progress", "--campaign-dir", d]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.count(" ok ") >= 3 or "ok" in captured.out
        assert "campaign complete" in captured.err  # --progress narration
        manifest = json.load(open(os.path.join(d, "manifest.json")))
        assert manifest["status"] == "complete"
        assert manifest["ok"] == 3 and manifest["failed"] == 0
        assert manifest["policy"]["workers"] == 2

    def test_chaos_sweep_at_default_workers(self, tmp_path, capsys):
        # Seed 7 over four points poisons one point and kills another
        # once; one worker absorbs both, and the directory audits clean.
        d = str(tmp_path / "camp")
        code = main(
            ["sweep", "health", "--machines", "base,stride,psb,jouppi",
             "--instructions", "1000", "--warmup", "200",
             "--chaos-seed", "7", "--chaos-poison", "1",
             "--max-worker-kills", "2", "--campaign-dir", d]
        )
        assert code == 0
        manifest = json.load(open(os.path.join(d, "manifest.json")))
        assert manifest["policy"]["workers"] == 1
        assert (manifest["ok"], manifest["failed"], manifest["poisoned"]) == (
            3, 0, 1
        )
        assert main(["audit", d]) == 0

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_poison_tallies_match_at_any_worker_count(
        self, tmp_path, capsys, workers
    ):
        # Seed 7 poisons both points; each spends the default kill
        # budget of 3 and ends poisoned, whatever the worker count.
        d = str(tmp_path / "camp")
        code = main(
            ["sweep", "health", "--machines", "base,stride",
             "--instructions", "1000", "--warmup", "200",
             "--chaos-seed", "7", "--chaos-poison", "2",
             "--workers", workers, "--campaign-dir", d]
        )
        assert code == 0
        manifest = json.load(open(os.path.join(d, "manifest.json")))
        assert (manifest["ok"], manifest["failed"], manifest["poisoned"]) == (
            0, 0, 2
        )
        assert manifest["chaos"]["counters"]["worker_kills"] == 6

    def test_workers_with_no_isolate_exits_one(self, capsys):
        code = main(
            ["sweep", "health", "--machines", "base", "--workers", "2"]
            + self._FAST
        )
        assert code == 1
        assert "isolation" in capsys.readouterr().err


class TestExitCodes:
    def test_success_exits_zero(self):
        assert main(["workloads"]) == 0

    def test_repro_error_exits_one_with_message(self, capsys):
        code = main(
            ["sweep", "health", "--machines", "warp-drive",
             "--instructions", "100", "--no-isolate"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "repro-sim: error:" in captured.err
        assert "Traceback" not in captured.err

    def test_resume_without_campaign_dir_exits_one(self, capsys):
        code = main(
            ["sweep", "health", "--resume", "--instructions", "100",
             "--no-isolate"]
        )
        assert code == 1
        assert "campaign_dir" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(
                ["sweep", "health", "--machines", "base,psb",
                 "--sample", "40000:1000:500", "--sample-paired"],
                id="sweep-sample-paired",
            ),
            pytest.param(["report", "turb3d"], id="report-workload"),
            pytest.param(["report", "--instructions", "10"],
                         id="report-instructions"),
            pytest.param(["trace", "health", "--out", "x", "--binary"],
                         id="trace-binary"),
            pytest.param(["run", "many_streams", "--buffer-sharing",
                          "harmonic"], id="run-buffer-sharing"),
            pytest.param(["run", "many_streams", "--pool-entries", "24"],
                         id="run-pool-entries"),
            pytest.param(["sweep", "health", "--golden"], id="sweep-golden"),
        ],
    )
    def test_retired_comparison_flags_are_usage_errors(self, argv, capsys):
        # `compare` is the one command that compares machines inline:
        # `sweep` only runs campaigns and `report` only renders.
        # `trace compile WORKLOAD --out X` is the one way to compile, a
        # pooled sharing policy is a machine (`--machine psb-harmonic`),
        # and `check` is the one golden-model driver.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-5"])
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["run", "health"], id="run"),
            pytest.param(["compare", "health"], id="compare"),
            pytest.param(["check", "health"], id="check"),
            pytest.param(["sweep", "health"], id="sweep"),
            pytest.param(["trace", "health", "--out", "x.trace"], id="trace"),
            pytest.param(
                ["trace", "compile", "health", "--out", "x.rtb"],
                id="trace-compile",
            ),
        ],
    )
    def test_run_length_below_one_exits_one(
        self, argv, count, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--instructions", count]) == 1
        assert "--instructions must be >= 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("interval", ["0", "-5"])
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param([], id="detailed"),
            pytest.param(["--sample", "40000:1000:500"], id="sampled"),
        ],
    )
    def test_metrics_interval_below_one_exits_one(
        self, argv, interval, capsys, tmp_path, monkeypatch
    ):
        # Checked whenever --metrics is given, also where a sampled run
        # then attaches no registry.
        monkeypatch.chdir(tmp_path)
        code = main(
            ["run", "health", "--instructions", "100", "--metrics",
             "--metrics-interval", interval] + argv
        )
        assert code == 1
        assert "--metrics-interval must be >= 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_audit_command_is_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "audit" in capsys.readouterr().out

    def test_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        def interrupted():
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_command_workloads", interrupted)
        assert main(["workloads"]) == 130
        assert "interrupted" in capsys.readouterr().err
