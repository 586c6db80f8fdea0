"""Tests of the e2e benchmark harness, on tiny shapes.

Run with ``pytest benchmarks/e2e`` (well under a minute).
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import pytest

import calibrate
import child
import run
from spans import SPANS, SpanTimer
from workloads import ROOT, WORKLOADS, use_checkout_sources

use_checkout_sources()

#: The real workloads cut down to a few thousand records.
TINY = {
    name: dataclasses.replace(
        spec, records=5_000,
        sample=(1_000, 200, 100, 1, True) if spec.sample else None,
    )
    for name, spec in WORKLOADS.items()
}
#: No pin exists for this seed, so runs are checked against each other.
UNPINNED_SEED = 99
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(autouse=True)
def _private_trace_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny_runs(name: str, seed: int = UNPINNED_SEED) -> list:
    return [
        dict(child.run_once(name, TINY[name], seed, traced), ok=True)
        for traced in (False, True)
    ]


def test_self_time_is_total_minus_direct_children():
    now = [0.0]
    timer = SpanTimer(clock=lambda: now[0])

    def leaf():
        now[0] += 1.0

    def inner():
        now[0] += 2.0
        timed_leaf()
        now[0] += 0.5

    def outer():
        now[0] += 3.0
        timed_inner()
        timed_inner()
        now[0] += 4.0

    timed_leaf = timer.wrap("leaf", leaf)
    timed_inner = timer.wrap("inner", inner)
    timer.wrap("outer", outer)()
    assert timer.calls == {"leaf": 2, "inner": 2, "outer": 1}
    assert timer.total == {"leaf": 2.0, "inner": 7.0, "outer": 14.0}
    assert timer.self_time == {"leaf": 2.0, "inner": 5.0, "outer": 7.0}


def test_a_raising_span_is_still_charged_to_its_parent():
    now = [0.0]
    timer = SpanTimer(clock=lambda: now[0])

    def failing():
        now[0] += 2.0
        raise ValueError("boom")

    timed_failing = timer.wrap("failing", failing)

    def outer():
        now[0] += 1.0
        with pytest.raises(ValueError):
            timed_failing()

    timer.wrap("outer", outer)()
    assert timer.self_time == {"failing": 2.0, "outer": 1.0}


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_is_bit_identical_to_untraced(name):
    from repro.sampling.fastforward import FastForwardEngine

    replay = FastForwardEngine.replay
    plain, traced = _tiny_runs(name)
    assert traced["digest"] == plain["digest"]
    assert FastForwardEngine.replay is replay
    spans = traced["spans"]
    assert spans["cpu.advance"]["calls"] >= 1
    assert spans["memory.access"]["calls"] > 0
    assert (spans["sampling.replay"]["calls"] > 0) == bool(TINY[name].sample)
    assert (spans["streambuf.tick"]["calls"] > 0) == (TINY[name].machine != "base")


def test_a_timed_child_sets_up_once_and_alternates_traced_runs():
    report = child.measure("health-psb", TINY["health-psb"], UNPINNED_SEED,
                           traced=True, deadline=1.0)
    runs = child.flatten(report)
    assert [r["traced"] for r in runs] == [False, True]
    assert ["setup" in r for r in runs] == [True, False]
    assert runs[0]["digest"] == runs[1]["digest"]
    assert all(r["loop_s"] > 0 for r in runs) and report["setup"]["loop_s"] > 0
    assert run.setup_s(runs[0]) > 0


def test_times_are_normalised_by_the_reference_loop():
    base = {"run_s": 2.0, "records": 1_000, "loop_s": calibrate.REFERENCE_S}
    slow = dict(base, run_s=4.0, loop_s=2 * calibrate.REFERENCE_S)
    assert run.us_per_record(base) == pytest.approx(2_000.0)
    assert run.us_per_record(slow) == pytest.approx(run.us_per_record(base))
    assert run.wall_us_per_record(slow) == pytest.approx(4_000.0)
    assert calibrate.reference_loop() == calibrate.CHECKSUM


def test_pin_mismatch_counts_as_failure():
    runs = _tiny_runs("health-psb", seed=1)
    pins = {"digests": {"health-psb": {"1": "0" * 64}}}
    assert run.check_runs(runs, pins) == 2
    assert all("digest" in r["error"] for r in runs)
    assert run.end_to_end_values(runs, pins)["failed_frac"] == [1.0]


def test_runs_that_disagree_without_a_pin_fail():
    runs = _tiny_runs("health-psb")
    odd = dict(runs[0], digest="f" * 64)
    assert run.check_runs(runs + [odd], {}) == 1
    assert not odd["ok"] and all(r["ok"] for r in runs)


def test_ipc_error_is_scored_against_the_pinned_reference():
    runs = _tiny_runs("health-sampled")
    reference = runs[0]["ipc"] * 0.9
    pins = {"reference_ipc": {"health-sampled": {str(UNPINNED_SEED): reference}}}
    values = run.end_to_end_values(runs, pins)
    assert values["ipc_err_pct"] == pytest.approx([100 / 9])


@pytest.mark.parametrize("trace", [0, 1])
def test_timed_run_prints_every_declared_metric(trace, monkeypatch, capsys):
    name = "many_streams-harmonic"
    monkeypatch.setattr(
        run, "spawn",
        lambda workload, seed, traced, timeout, deadline: child.flatten(
            child.measure(workload, TINY[workload], seed, traced, deadline)
        ),
    )
    assert run.timed_run(name, UNPINNED_SEED, 0.0, bool(trace)) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        metric: value["unit"] for metric, value in result["metrics"].items()
    }


def test_every_emitted_name_is_valid_and_has_a_unit():
    runs = _tiny_runs("sis-psb")
    emitted = set(run.end_to_end_values(runs, {})) | set(run.per_layer_values(runs))
    declared = run.load_declared()
    units = dict(run.REPORT_ONLY_UNITS, **declared["end_to_end"])
    units.update(declared["per_layer"])
    assert emitted <= set(units)
    assert all(NAME.fullmatch(name) for name in emitted | set(WORKLOADS))
    assert all(UNIT.fullmatch(unit) for unit in units.values())


def test_benchmark_json_declares_the_harness_workloads():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}
    assert len(SPANS) * 2 < len(spec["per_layer"]) <= 128


def test_fails_without_simulator_sources(tmp_path):
    bench = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(ROOT / "benchmarks" / "e2e", bench,
                    ignore=shutil.ignore_patterns("__pycache__", "test_*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "health-psb",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
