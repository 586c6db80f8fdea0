"""The perf-regression harness: run_bench, baselines, and the CLI."""

import copy
import json
import os
import subprocess

import pytest

import repro.perf.bench as perf_bench
from repro.cli import MACHINES, main
from repro.config import SamplingConfig
from repro.perf.bench import (
    _SAMPLING_SHAPE,
    BenchmarkError,
    check_against_baseline,
    check_sampling_baseline,
    format_report,
    format_sampling_report,
    load_baseline,
    run_bench,
    run_sampling_bench,
    write_report,
)
from repro.sampling.paired import PairedResult, PairStats
from repro.sim.results import SimulationResult


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path_factory, monkeypatch):
    monkeypatch.setenv(
        "REPRO_TRACE_CACHE", str(tmp_path_factory.mktemp("traces"))
    )


def _record_runs(monkeypatch):
    """Wrap the bench's ``_timed_run`` (stubbed or not) and return the
    ``(label, config)`` of each run it makes, in order."""
    import repro.perf.bench as perf

    runs = []
    timed_run = perf._timed_run

    def recording(config, records, instructions, warmup, label):
        runs.append((label, config))
        return timed_run(config, records, instructions, warmup, label)

    monkeypatch.setattr(perf, "_timed_run", recording)
    return runs


def _small_report():
    return run_bench(["health"], instructions=2_000, repeats=1)


class TestRunBench:
    def test_report_shape_and_agreement(self):
        report = _small_report()
        assert report["version"] == 1
        assert report["machine"] == "base"
        entry = report["results"]["health"]
        assert entry["cycles"] > 0
        assert entry["stepped"]["wall_s"] > 0
        assert entry["event"]["cycles_per_sec"] > 0
        assert entry["event"]["cycles_skipped"] > 0
        assert entry["speedup"] > 0
        assert "health" in format_report(report)

    def test_unknown_workload(self):
        with pytest.raises(BenchmarkError, match="unknown workload"):
            run_bench(["quake"])
        with pytest.raises(BenchmarkError, match="unknown workload"):
            run_sampling_bench(["quake"])

    def test_bad_repeats(self):
        with pytest.raises(BenchmarkError, match="repeats"):
            run_bench(["health"], instructions=500, repeats=0)

    def test_modes_take_turns(self, monkeypatch):
        # A change in host speed lands on both modes of the ratio.
        runs = _record_runs(monkeypatch)
        run_bench(["health"], instructions=2_000, repeats=3)
        assert [label for label, _ in runs] == (
            ["health:stepped", "health:event"] * 3
        )

    def test_git_rev_reads_the_checkout_that_ran(self, tmp_path, monkeypatch):
        # The stamped revision is the sources', wherever the caller stands.
        source_dir = os.path.dirname(os.path.abspath(perf_bench.__file__))
        try:
            expected = subprocess.run(
                ["git", "-C", source_dir, "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=10,
            )
        except OSError:
            pytest.skip("git is not installed")
        if expected.returncode != 0:
            pytest.skip("the sources are not in a git checkout")
        monkeypatch.chdir(tmp_path)
        assert perf_bench._git_rev() == expected.stdout.strip()


class TestBaseline:
    def test_round_trip_and_self_check(self, tmp_path):
        report = _small_report()
        path = str(tmp_path / "bench.json")
        write_report(report, path)
        baseline = load_baseline(path)
        assert check_against_baseline(report, baseline) == []

    def test_detects_regression(self, tmp_path):
        report = _small_report()
        baseline = json.loads(json.dumps(report))
        baseline["results"]["health"]["speedup"] *= 10
        failures = check_against_baseline(report, baseline)
        assert failures == [
            f"health: speedup {report['results']['health']['speedup']:.2f}x"
            f" is 90% below baseline "
            f"{baseline['results']['health']['speedup']:.2f}x (tolerance 25%)"
        ]

    def test_rejects_mismatched_run_shape(self):
        report = _small_report()
        baseline = json.loads(json.dumps(report))
        baseline["instructions"] = 50_000
        failures = check_against_baseline(report, baseline)
        assert len(failures) == 1
        assert "not comparable" in failures[0]

    def test_ignores_unshared_workloads(self):
        report = _small_report()
        assert check_against_baseline(report, {"results": {}}) == []

    def test_load_baseline_errors(self, tmp_path):
        with pytest.raises(BenchmarkError, match="cannot read"):
            load_baseline(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(BenchmarkError, match="not valid JSON"):
            load_baseline(str(bad))
        versionless = tmp_path / "old.json"
        versionless.write_text('{"results": {}, "version": 99}')
        with pytest.raises(BenchmarkError, match="version"):
            load_baseline(str(versionless))


CORE_BASELINE, SAMPLING_BASELINE = (
    os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", name)
    for name in ("BENCH_core.json", "BENCH_sampling.json")
)


def _sampling_report():
    """A one-workload sampling-bench report carrying every leg and key."""
    return {
        "version": 1,
        "suite": "sampling",
        "machine": "psb",
        "instructions": 1_000_000,
        "seed": 1,
        "sample": {"period": 50_000, "window": 1_000, "warmup": 500},
        "tuned_sample": {"strata": 4, "warm_confidence": True},
        "paired_sample": {"period": 50_000, "window": 4_000, "warmup": 1_000},
        "baseline_machine": "base",
        "ipc_error_bound": 0.10,
        "paired_error_bound": 0.05,
        "speedup_floor": 10.0,
        "results": {
            "health": {
                "detailed": {"cycles": 1_000, "instructions": 900,
                             "ipc": 0.9},
                "base_detailed": {"cycles": 2_000, "ipc": 0.45},
                "sampled": {"ipc": 0.95, "windows": 20},
                "tuned": {"ipc": 0.92, "windows": 80, "ipc_error": 0.02},
                "paired": {"rel_ipc": 2.1, "windows": 20, "rel_err": 0.03},
                "ipc_error": 0.05,
                "speedup": 11.0,
            },
        },
    }


class TestSamplingGate:
    """``check_sampling_baseline`` on synthetic reports, no simulation."""

    def test_checked_in_baseline_passes_against_itself(self):
        baseline = load_baseline(SAMPLING_BASELINE, suite="sampling")
        assert check_sampling_baseline(baseline, baseline) == []

    @pytest.mark.parametrize(
        "leg, field, what",
        [
            ("detailed", "cycles", "detailed mode"),
            ("base_detailed", "ipc", "detailed baseline-machine run"),
            ("sampled", "windows", "sampled estimate"),
            ("tuned", "ipc", "tuned estimate"),
            ("paired", "rel_ipc", "paired estimate"),
        ],
    )
    def test_each_leg_must_be_bit_identical(self, leg, field, what):
        report = _sampling_report()
        baseline = copy.deepcopy(report)
        report["results"]["health"][leg][field] += 1
        assert check_sampling_baseline(report, baseline) == [
            f"health: {what} is not bit-identical to the baseline "
            f"({field} {report['results']['health'][leg][field]} vs "
            f"{baseline['results']['health'][leg][field]})"
        ]

    @pytest.mark.parametrize(
        "leg, field, message",
        [
            ("tuned", "ipc_error",
             "health: tuned IPC error 10.50% exceeds the stated bound "
             "10.00%"),
            ("paired", "rel_err",
             "health: paired relative-IPC error 10.50% exceeds the "
             "stated bound 5.00%"),
        ],
    )
    def test_error_bounds(self, leg, field, message):
        report = _sampling_report()
        baseline = copy.deepcopy(report)
        report["results"]["health"][leg][field] = 0.105
        assert check_sampling_baseline(report, baseline) == [message]

    def test_speedup_floor_is_scaled_by_the_tolerance(self):
        report = _sampling_report()
        baseline = copy.deepcopy(report)
        report["results"]["health"]["speedup"] = 7.6
        assert check_sampling_baseline(report, baseline) == []
        report["results"]["health"]["speedup"] = 7.4
        assert check_sampling_baseline(report, baseline) == [
            "health: effective speedup 7.40x is below the stated floor "
            "10.0x (tolerance 25% -> gate 7.50x)"
        ]

    def test_comparability_key_must_match(self):
        report = _sampling_report()
        baseline = copy.deepcopy(report)
        report["paired_sample"] = {"period": 50_000, "window": 2_000,
                                   "warmup": 1_000}
        failures = check_sampling_baseline(report, baseline)
        assert len(failures) == 1
        assert failures[0].startswith(
            "baseline not comparable: paired_sample is "
        )

    def test_refuses_a_non_sampling_suite(self):
        report = _sampling_report()
        baseline = dict(copy.deepcopy(report), suite="core")
        failures = check_sampling_baseline(report, baseline)
        assert len(failures) == 1
        assert "not a sampling-suite report" in failures[0]

    def test_refuses_a_baseline_without_its_tuned_leg(self):
        report = _sampling_report()
        baseline = copy.deepcopy(report)
        del baseline["results"]["health"]["tuned"]
        assert check_sampling_baseline(report, baseline) == [
            "health: the baseline has no tuned leg (re-generate with "
            "'repro-sim bench --sampling')"
        ]

    @pytest.mark.parametrize(
        "key, message",
        [
            ("tuned_sample",
             "baseline not comparable: tuned_sample is None in the "
             "baseline but {'strata': 4, 'warm_confidence': True} in this "
             "run"),
            ("speedup_floor",
             "baseline not comparable: it states no speedup_floor"),
        ],
    )
    def test_refuses_a_baseline_without_a_key_it_gates_on(self, key, message):
        report = _sampling_report()
        baseline = copy.deepcopy(report)
        del baseline[key]
        assert check_sampling_baseline(report, baseline) == [message]


def _leg_result(label, cycles):
    return SimulationResult(
        label=label, instructions=2_000, cycles=cycles, ipc=1.0,
        l1_miss_rate=0.0, avg_load_latency=0.0, load_fraction=0.0,
        store_fraction=0.0, branch_misprediction_rate=0.0,
        l1_l2_bus_utilization=0.0, l2_mem_bus_utilization=0.0,
    )


@pytest.fixture
def leg_script(monkeypatch):
    """Stub every run inside ``run_sampling_bench``: each run of a leg
    takes the next (wall time, cycles) its script lists; a leg without
    a script reads (1.0, 1000).  No simulation runs."""
    import repro.perf.bench as perf

    script = {
        "detailed": [(5.0, 1_000), (3.0, 1_000), (4.0, 1_000)],
        "sampled": [(0.5, 1_000), (0.2, 1_000), (0.4, 1_000)],
    }

    def timed_run(config, records, instructions, warmup, label):
        runs = script.get(label.split(":")[1])
        wall, cycles = runs.pop(0) if runs else (1.0, 1_000)
        return _leg_result(label, cycles), wall, None

    def paired(configs, records, max_instructions, baseline):
        stats = PairStats(
            label="psb", baseline=baseline, rel_ipc=1.0,
            speedup_percent=0.0, ratio_mean=1.0, ratio_ci95=0.0, windows=1,
        )
        return PairedResult(
            baseline=baseline, sample={}, results={}, pairs={"psb": stats}
        )

    monkeypatch.setattr(perf, "_timed_run", timed_run)
    monkeypatch.setattr(perf, "run_paired", paired)
    monkeypatch.setattr(
        perf, "cached_workload_trace", lambda *args, **kwargs: []
    )
    return script


class TestSamplingSpeedup:
    def test_speedup_is_best_detailed_over_best_sampled(self, leg_script):
        report = run_sampling_bench(["health"])
        entry = report["results"]["health"]
        assert entry["detailed"]["wall_s"] == 3.0
        assert entry["sampled"]["wall_s"] == 0.2
        assert entry["speedup"] == 15.0
        assert leg_script == {"detailed": [], "sampled": []}

    def test_repeats_that_disagree_are_refused(self, leg_script):
        leg_script["sampled"][2] = (0.4, 1_001)
        with pytest.raises(BenchmarkError, match="repeated runs"):
            run_sampling_bench(["health"])

    def test_tuned_speedup_is_best_detailed_over_best_tuned(
        self, leg_script
    ):
        leg_script["tuned"] = [(0.6, 1_000), (0.3, 1_000), (0.5, 1_000)]
        report = run_sampling_bench(["health"])
        tuned = report["results"]["health"]["tuned"]
        assert tuned["wall_s"] == 0.3
        assert tuned["speedup"] == 10.0
        assert leg_script["tuned"] == []
        assert " 10.00x" in format_sampling_report(report)

    def test_sampled_and_tuned_runs_take_turns(self, leg_script,
                                               monkeypatch):
        runs = _record_runs(monkeypatch)
        run_sampling_bench(["health"])
        assert [label.split(":")[1] for label, _ in runs] == (
            ["detailed"] * 3 + ["base-detailed"] + ["sampled", "tuned"] * 3
        )


class TestFixedShapes:
    """Each suite runs one fixed shape and stamps what its checked-in
    baseline pins, so ``--check`` against that baseline is comparable."""

    def test_sampling_suite_stamps_the_baselines_shape_and_contract(
        self, leg_script, monkeypatch
    ):
        recorded = _record_runs(monkeypatch)
        report = run_sampling_bench(["health"])
        runs = dict(recorded)
        baseline = load_baseline(SAMPLING_BASELINE, suite="sampling")
        keys = _SAMPLING_SHAPE + (
            "ipc_error_bound", "paired_error_bound", "speedup_floor"
        )
        assert {key: report[key] for key in keys} == {
            key: baseline[key] for key in keys
        }
        # The stamped names and shapes are the ones that ran.
        machine = MACHINES[report["machine"]]()
        assert runs["health:detailed"] == machine
        assert runs["health:base-detailed"] == (
            MACHINES[report["baseline_machine"]]()
        )
        assert runs["health:sampled"] == machine.with_sampling(
            **report["sample"]
        )
        assert runs["health:tuned"].sampling == SamplingConfig(
            **report["sample"], **report["tuned_sample"]
        )

    def test_core_suite_stamps_the_baselines_shape(self, monkeypatch):
        recorded = _record_runs(monkeypatch)
        report = run_bench(["health"], instructions=10_000, repeats=1)
        runs = dict(recorded)
        baseline = load_baseline(CORE_BASELINE)
        keys = ("machine", "instructions", "warmup", "seed")
        assert {key: report[key] for key in keys} == {
            key: baseline[key] for key in keys
        }
        assert runs["health:event"] == MACHINES[report["machine"]]()


class TestBenchCommand:
    def test_quick_writes_report(self, tmp_path, capsys):
        out = str(tmp_path / "BENCH_core.json")
        code = main(
            ["bench", "--quick", "--workloads", "health,burg",
             "--instructions", "2000", "--repeats", "1", "--out", out]
        )
        assert code == 0
        report = json.load(open(out))
        assert set(report["results"]) == {"health", "burg"}
        assert "speedup" in capsys.readouterr().out

    def test_check_gate(self, tmp_path, capsys):
        out = str(tmp_path / "bench.json")
        args = ["bench", "--workloads", "health", "--instructions", "2000",
                "--repeats", "1", "--out", out]
        assert main(args) == 0
        # Self-comparison passes the gate ...
        assert main(args + ["--check", out]) == 0
        assert "no regressions" in capsys.readouterr().out
        # ... an inflated baseline fails it.
        baseline = json.load(open(out))
        baseline["results"]["health"]["speedup"] *= 10
        inflated = str(tmp_path / "inflated.json")
        json.dump(baseline, open(inflated, "w"))
        assert main(args + ["--check", inflated]) == 1
        assert "regression" in capsys.readouterr().err


@pytest.fixture
def bench_calls(monkeypatch):
    """Stub both bench suites and the report writer; record their inputs."""
    import repro.perf.bench as perf

    calls = {}

    def suite(name):
        def run(workloads, **kwargs):
            calls[name] = dict(kwargs, workloads=workloads)
            return {}

        return run

    monkeypatch.setattr(perf, "run_bench", suite("core"))
    monkeypatch.setattr(perf, "run_sampling_bench", suite("sampling"))
    monkeypatch.setattr(perf, "format_report", lambda report: "")
    monkeypatch.setattr(perf, "format_sampling_report", lambda report: "")
    monkeypatch.setattr(
        perf, "write_report", lambda report, path: calls.update(out=path)
    )
    return calls


class TestBenchFlags:
    """Each suite runs with the flags it was given, or refuses them."""

    @pytest.mark.parametrize(
        "argv, suite, expected",
        [
            (
                ["--quick", "--instructions", "50000"], "core",
                {"instructions": 50_000, "out": "BENCH_core.json"},
            ),
            (["--quick"], "core", {"instructions": 10_000, "repeats": 3}),
            (
                ["--sampling", "--instructions", "50000",
                 "--out", "BENCH_core.json"], "sampling",
                {"instructions": 50_000, "out": "BENCH_core.json"},
            ),
            (
                ["--sampling"], "sampling",
                {"instructions": 1_000_000, "out": "BENCH_sampling.json"},
            ),
            (
                ["--sampling", "--workloads", "health, sis"], "sampling",
                {"workloads": ["health", "sis"], "instructions": 1_000_000},
            ),
            (
                ["--workloads", "burg", "--repeats", "1"], "core",
                {"workloads": ["burg"], "instructions": 50_000,
                 "repeats": 1},
            ),
        ],
    )
    def test_given_flags_reach_the_suite(
        self, bench_calls, argv, suite, expected
    ):
        assert main(["bench", *argv]) == 0
        assert set(bench_calls) == {suite, "out"}
        seen = dict(bench_calls[suite], out=bench_calls["out"])
        assert {key: seen[key] for key in expected} == expected

    @pytest.mark.parametrize(
        "argv",
        [
            # Both core-only flags, named in one error line.
            ["--sampling", "--quick", "--repeats", "1"],
            ["--sampling", "--quick"],
            # Giving the flag is refused, even at the core suite's default.
            ["--sampling", "--repeats", "3"],
            ["--sampling", "--repeats", "1"],
        ],
    )
    def test_refuses_a_flag_the_suite_does_not_read(
        self, bench_calls, capsys, argv
    ):
        assert main(["bench", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro-sim: error: bench:")
        assert err.count("\n") == 1
        assert bench_calls == {}  # no suite ran

    @pytest.mark.parametrize(
        "argv",
        [["--instructions", "0"], ["--sampling", "--instructions", "-5"]],
    )
    def test_rejects_instructions_below_one(self, bench_calls, capsys, argv):
        assert main(["bench", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro-sim: error: bench: --instructions")
        assert err.count("\n") == 1
        assert bench_calls == {}

    @pytest.mark.parametrize(
        "flag",
        [
            ["--sample-strata", "2"],
            ["--warm-confidence"],
            # Retired: each suite's shape and contract are constants.
            ["--machine", "psb"],
            ["--warmup", "0"],
            ["--seed", "2"],
            ["--profile", "prof"],
            ["--sample", "50000:1000:500"],
            ["--error-bound", "0.2"],
            ["--paired-bound", "0.1"],
            ["--speedup-floor", "5"],
            # Both gates allow repro.perf.bench.TOLERANCE.
            ["--tolerance", "0.25"],
        ],
    )
    def test_sampling_shape_flags_are_not_registered(
        self, bench_calls, capsys, flag
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--sampling", *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert bench_calls == {}


class TestBaselineReadFirst:
    """``--check`` reads its baseline before any suite runs, so a
    baseline that cannot gate the run never costs one."""

    @staticmethod
    def _write(tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(
            payload if isinstance(payload, str) else json.dumps(payload)
        )
        return str(path)

    @pytest.mark.parametrize(
        "argv, baseline, message",
        [
            ([], None, "cannot read baseline"),
            ([], "{not json", "is not valid JSON"),
            ([], {"results": {}, "version": 99}, "has version 99"),
            (
                [], {"results": {}, "version": 1, "suite": "sampling"},
                "is a sampling-suite report, not a core-suite one",
            ),
            (
                ["--sampling"], {"results": {}, "version": 1},
                "is a core-suite report, not a sampling-suite one",
            ),
        ],
        ids=["missing", "unreadable", "wrong-version", "sampling-for-core",
             "core-for-sampling"],
    )
    def test_refused_before_the_suite_runs(
        self, bench_calls, capsys, tmp_path, argv, baseline, message
    ):
        path = (
            str(tmp_path / "missing.json") if baseline is None
            else self._write(tmp_path, "baseline.json", baseline)
        )
        assert main(["bench", *argv, "--check", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro-sim: error: ")
        assert message in err
        assert err.count("\n") == 1
        assert bench_calls == {}  # no suite ran, no report written

    @pytest.mark.parametrize(
        "argv, suite, baseline",
        [
            ([], "core", {"results": {}, "version": 1}),
            (["--sampling"], "sampling",
             {"results": {}, "version": 1, "suite": "sampling"}),
        ],
    )
    def test_a_baseline_of_the_suite_is_accepted(
        self, bench_calls, capsys, tmp_path, monkeypatch, argv, suite,
        baseline,
    ):
        import repro.perf.bench as perf

        checked = []
        monkeypatch.setattr(perf, "check_against_baseline",
                            lambda report, base: checked.append(base) or [])
        monkeypatch.setattr(perf, "check_sampling_baseline",
                            lambda report, base: checked.append(base) or [])
        path = self._write(tmp_path, "baseline.json", baseline)
        assert main(["bench", *argv, "--check", path]) == 0
        assert suite in bench_calls
        assert checked == [baseline]
        assert capsys.readouterr().out.endswith(
            f"no regressions vs {path} (tolerance 25%)\n"
        )


class TestTraceCompileCommand:
    def test_compile_workload(self, tmp_path, capsys):
        from repro.trace import load_binary_trace_list

        out = str(tmp_path / "health.rtb")
        code = main(
            ["trace", "compile", "health", "--out", out,
             "--instructions", "300", "--seed", "2"]
        )
        assert code == 0
        assert "compiled 300 records" in capsys.readouterr().out
        assert len(load_binary_trace_list(out)) == 300

    def test_compile_text_trace(self, tmp_path):
        from repro.trace import load_binary_trace_list
        from repro.trace.io import load_trace

        text = str(tmp_path / "t.trace")
        assert main(
            ["trace", "gs", "--out", text, "--instructions", "200"]
        ) == 0
        out = str(tmp_path / "t.rtb")
        assert main(["trace", "compile", text, "--out", out]) == 0
        assert load_binary_trace_list(out) == list(load_trace(text))

    def test_compile_needs_source(self, tmp_path, capsys):
        out = str(tmp_path / "x.rtb")
        assert main(["trace", "compile", "--out", out]) != 0
        assert "workload name" in capsys.readouterr().err
