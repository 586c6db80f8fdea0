"""The perf-regression harness: run_bench, baselines, and the CLI."""

import copy
import json
import os

import pytest

from repro.cli import main
from repro.perf.bench import (
    BenchmarkError,
    check_against_baseline,
    check_sampling_baseline,
    format_report,
    load_baseline,
    run_bench,
    write_report,
)
from repro.sim import baseline_config


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path_factory, monkeypatch):
    monkeypatch.setenv(
        "REPRO_TRACE_CACHE", str(tmp_path_factory.mktemp("traces"))
    )


def _small_report(**kwargs):
    return run_bench(
        ["health"], baseline_config(), machine="base",
        instructions=2_000, repeats=1, **kwargs
    )


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
            run_bench(["quake"], baseline_config())

    def test_bad_repeats(self):
        with pytest.raises(BenchmarkError, match="repeats"):
            run_bench(
                ["health"], baseline_config(), instructions=500, repeats=0
            )

    def test_profile_dump(self, tmp_path):
        _small_report(profile_dir=str(tmp_path / "prof"))
        assert (tmp_path / "prof" / "health-event.prof").exists()
        assert (tmp_path / "prof" / "health-stepped.prof").exists()


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
        failures = check_against_baseline(report, baseline, tolerance=0.25)
        assert len(failures) == 1
        assert "below baseline" in failures[0]

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

    def test_rejects_bad_tolerance(self):
        report = _small_report()
        with pytest.raises(BenchmarkError, match="tolerance"):
            check_against_baseline(report, report, tolerance=1.5)

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


SAMPLING_BASELINE = os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks", "BENCH_sampling.json"
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
        baseline = load_baseline(SAMPLING_BASELINE)
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
        assert check_sampling_baseline(report, baseline, tolerance=0.25) == []
        report["results"]["health"]["speedup"] = 7.4
        assert check_sampling_baseline(report, baseline, tolerance=0.25) == [
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

    @pytest.mark.parametrize("tolerance", [-0.1, 1.0])
    def test_rejects_a_tolerance_outside_zero_to_one(self, tolerance):
        report = _sampling_report()
        with pytest.raises(BenchmarkError, match="tolerance"):
            check_sampling_baseline(report, report, tolerance=tolerance)

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
        def run(workloads, config, **kwargs):
            calls[name] = kwargs
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
                {"instructions": 50_000, "machine": "base",
                 "out": "BENCH_core.json"},
            ),
            (["--quick"], "core", {"instructions": 10_000, "repeats": 3}),
            (
                ["--sampling", "--instructions", "50000",
                 "--out", "BENCH_core.json"], "sampling",
                {"instructions": 50_000, "machine": "psb",
                 "out": "BENCH_core.json"},
            ),
            (
                ["--sampling"], "sampling",
                {"instructions": 1_000_000, "out": "BENCH_sampling.json",
                 "sample": (50_000, 1_000, 500), "ipc_error_bound": 0.10,
                 "paired_error_bound": 0.05, "speedup_floor": 10.0},
            ),
            (
                ["--sampling", "--machine", "stride",
                 "--sample", "20000:1000:500", "--speedup-floor", "5"],
                "sampling",
                {"machine": "stride", "sample": (20_000, 1_000, 500),
                 "speedup_floor": 5.0},
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
            ["--sampling", "--machine", "base"],
            ["--sampling", "--quick"],
            ["--sampling", "--warmup", "0"],
            ["--sampling", "--repeats", "1"],
            ["--sample", "50000:1000:500"],
            ["--error-bound", "0.2"],
            ["--paired-bound", "0.1"],
            ["--speedup-floor", "5"],
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
        "flag", [["--sample-strata", "2"], ["--warm-confidence"]]
    )
    def test_sampling_shape_flags_are_not_registered(
        self, bench_calls, capsys, flag
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--sampling", *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert bench_calls == {}


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
        from repro.trace.io import load_trace_list

        text = str(tmp_path / "t.trace")
        assert main(
            ["trace", "gs", "--out", text, "--instructions", "200"]
        ) == 0
        out = str(tmp_path / "t.rtb")
        assert main(["trace", "compile", text, "--out", out]) == 0
        assert load_binary_trace_list(out) == load_trace_list(text)

    def test_compile_needs_source(self, tmp_path, capsys):
        out = str(tmp_path / "x.rtb")
        assert main(["trace", "compile", "--out", out]) != 0
        assert "workload name" in capsys.readouterr().err
