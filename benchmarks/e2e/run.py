"""End-to-end benchmark of the simulator's host cost, by workload.

Run from the repository root, in one of two ways:

``python benchmarks/e2e/run.py [--seed N] [--repeats R] [--workloads a,b] [--out FILE]``
    The report: ``R`` untraced runs of every workload, interleaved
    round-robin (w1..wN, w1..wN, ...) so slow machine drift spreads
    evenly, then one traced run per workload for the per-layer split.
    Prints every metric with its unit as median, quartiles, min, max
    and n; ``--out`` also writes the report as JSON.

``python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload for about ``S`` seconds: ``CHILDREN`` children one
    after another, each setting up from cold once and then repeating
    the run until its share of ``S`` is spent.  With ``--trace 0`` the
    last line of output is a JSON object carrying the end-to-end
    metrics (medians over the runs and set-ups); with ``--trace 1``
    untraced and traced runs alternate and it carries the per-layer
    metrics.

Children (``child.py``) start one at a time (a closed loop: one
client, one run in flight), each with a private, empty
``REPRO_TRACE_CACHE``, so set-up is always cold and a small machine
measures the program rather than its scheduler.  Times are normalised
to a reference host speed by the loop in ``calibrate.py``, timed right
before and after every set-up and run.  A run fails when it raises, or
when its ``SimulationResult`` digest differs from the pin in
``expected.json`` or from the other runs of the same workload and seed
(traced runs included).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibrate import normalise
from child import flatten
from spans import COUNTS, SPANS
from workloads import ROOT, SRC, WORKLOADS, use_checkout_sources

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
PINS = HERE / "expected.json"
#: Declares the workloads and every timed metric's name and unit.
BENCHMARK = ROOT / "BENCHMARK.json"
#: Children's private trace caches and temp files live under here.
WORK = HERE / ".build"
#: A timed run stops starting children once this many seconds have
#: passed, so it always exits well inside three minutes.
HARD_LIMIT_S = 150.0
#: Children of one timed run, so ``setup_s`` is a median of set-ups.
CHILDREN = 3

#: Units of the metrics only the report prints.  Both are exact (the
#: IPC error is deterministic, and a healthy run has no failures), so
#: ``BENCHMARK.json``, which takes timed metrics that are never 0,
#: does not declare them.
REPORT_ONLY_UNITS = {"ipc_err_pct": "%", "failed_frac": "ratio"}


def load_declared(path: Path = BENCHMARK) -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``, in
    the order ``BENCHMARK.json`` declares them."""
    with open(path) as handle:
        spec = json.load(handle)
    return {
        kind: {metric["name"]: metric["unit"] for metric in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def spawn(workload: str, seed: int, traced: bool, timeout: float,
          deadline: float = 0.0) -> list:
    """Run one child to completion; its runs, or one run with ``ok: False``.

    ``deadline`` is the Unix time by which the child stops starting
    runs; 0 asks for exactly one run.
    """
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as scratch:
        env = dict(os.environ)
        env["REPRO_TRACE_CACHE"] = scratch
        env["TMPDIR"] = scratch
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        command = [sys.executable, str(CHILD), workload, str(seed),
                   "1" if traced else "0", repr(deadline)]
        try:
            proc = subprocess.run(
                command, cwd=ROOT, env=env, capture_output=True,
                text=True, timeout=max(1.0, timeout),
            )
        except subprocess.TimeoutExpired:
            return [_failed(workload, seed, traced, f"timed out after {timeout:.0f}s")]
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return [_failed(workload, seed, traced,
                        f"exit {proc.returncode}: {tail[0]}")]
    try:
        return flatten(json.loads(lines[-1]))
    except (ValueError, KeyError, IndexError):
        return [_failed(workload, seed, traced, "unparsable child output")]


def _failed(workload: str, seed: int, traced: bool, error: str) -> dict:
    return {"workload": workload, "seed": seed, "traced": traced,
            "ok": False, "error": error}


def load_pins(path: Path = PINS) -> dict:
    """The pinned digests and reference IPCs (see ``pin.py``)."""
    with open(path) as handle:
        return json.load(handle)


def check_runs(runs: list, pins: dict) -> int:
    """Fail every run whose result differs from the pin or its peers.

    All runs must be of one workload and seed.  The reference digest is
    the pin when one exists for that seed, else the first successful
    untraced run's; traced runs must also agree with each other on
    every count.  Marks failures in place and returns how many runs
    failed in all.
    """
    done = [run for run in runs if run["ok"]]
    if done:
        workload, seed = done[0]["workload"], str(done[0]["seed"])
        reference = pins.get("digests", {}).get(workload, {}).get(seed)
        if reference is None:
            untraced = [run for run in done if not run["traced"]] or done
            reference = untraced[0]["digest"]
        first_counts = None
        for run in done:
            if run["digest"] != reference:
                run["ok"] = False
                run["error"] = "SimulationResult digest differs from the reference"
                continue
            if not run["traced"]:
                continue
            counts = (run["counts"],
                      [run["spans"][span]["calls"] for span in SPANS])
            if first_counts is None:
                first_counts = counts
            elif counts != first_counts:
                run["ok"] = False
                run["error"] = "traced counts differ between runs"
    return sum(1 for run in runs if not run["ok"])


def us_per_record(run: dict) -> float:
    """Run wall time per record, normalised to the reference host speed."""
    return normalise(run["run_s"], run["loop_s"]) / run["records"] * 1e6


def wall_us_per_record(run: dict) -> float:
    """Run wall time per record as measured."""
    return run["run_s"] / run["records"] * 1e6


def setup_s(run: dict) -> float:
    """A first run's set-up time, normalised to the reference host speed."""
    setup = run["setup"]
    return normalise(setup["trace_load_s"] + setup["sim_build_s"], setup["loop_s"])


def end_to_end_values(runs: list, pins: dict) -> dict:
    """Per-run values of each end-to-end metric over successful runs.

    Set-up time and peak RSS come once per child, from its first run.
    """
    done = [run for run in runs if run["ok"] and not run["traced"]]
    setups = [run for run in done if "setup" in run]
    values = {
        "us_per_record": [us_per_record(run) for run in done],
        "setup_s": [setup_s(run) for run in setups],
        "peak_rss_mb": [run["setup"]["peak_rss_mb"] for run in setups],
    }
    if done:
        workload, seed = done[0]["workload"], str(done[0]["seed"])
        reference = pins.get("reference_ipc", {}).get(workload, {}).get(seed)
        if reference:
            values["ipc_err_pct"] = [
                abs(run["ipc"] - reference) / reference * 100 for run in done
            ]
    values["failed_frac"] = [
        sum(1 for run in runs if not run["ok"]) / len(runs)
    ] if runs else []
    return values


def per_layer_values(runs: list) -> dict:
    """Per-run values of each per-layer metric; empty without a traced run."""
    traced = [run for run in runs if run["ok"] and run["traced"]]
    untraced = [run for run in runs if run["ok"] and not run["traced"]]
    if not traced:
        return {}
    values = {}
    for span in SPANS:
        values[f"{span}.calls"] = [run["spans"][span]["calls"] for run in traced]
        values[f"{span}.self_us_per_record"] = [
            run["spans"][span]["self_us_per_record"] for run in traced
        ]
    setups = [run["setup"] for run in traced + untraced if "setup" in run]
    values["workloads.trace_load_s"] = [setup["trace_load_s"] for setup in setups]
    values["sim.build_s"] = [setup["sim_build_s"] for setup in setups]
    for name in COUNTS:
        values[name] = [run["counts"][name] for run in traced]
    if untraced:
        plain = statistics.median(us_per_record(run) for run in untraced)
        timed = statistics.median(us_per_record(run) for run in traced)
        values["trace_overhead_pct"] = [(timed / plain - 1.0) * 100]
        values["wall_us_per_record"] = [wall_us_per_record(run) for run in untraced]
    values["reference_loop_s"] = [run["loop_s"] for run in traced + untraced]
    return values


def summarize(values: list) -> dict:
    """Median, quartiles, min, max and n of one metric's values."""
    median = statistics.median(values)
    q1 = q3 = median
    if len(values) >= 2:
        q1, __, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def format_rows(workload: str, values: dict, units: dict) -> list:
    """One human-readable line per metric that has values."""
    lines = []
    for name, unit in units.items():
        series = values.get(name)
        if not series:
            continue
        s = summarize(series)
        lines.append(
            f"{workload:<22} {name:<40} {unit:>9} "
            f"{s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
            f"{s['min']:>12.6g} {s['max']:>12.6g} {s['n']:>3}"
        )
    return lines


HEADER = (
    f"{'workload':<22} {'metric':<40} {'unit':>9} {'median':>12} "
    f"{'q1':>12} {'q3':>12} {'min':>12} {'max':>12} {'n':>3}"
)


def timed_run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload for about ``seconds``; print the result line.

    ``CHILDREN`` children run one after another, the i-th repeating
    runs until i/``CHILDREN`` of ``seconds`` has passed (after at least
    one run).  A traced measurement needs no median of set-ups, so it
    spends ``seconds`` in one child alternating untraced and traced
    runs (at least one of each).
    """
    pins = load_pins()
    start = time.time()
    seconds = min(seconds, HARD_LIMIT_S)
    children = 1 if trace else CHILDREN
    runs = []
    for index in range(1, children + 1):
        remaining = HARD_LIMIT_S - (time.time() - start)
        if remaining <= 0:
            break
        deadline = start + seconds * index / children
        runs.extend(spawn(workload, seed, trace, remaining, deadline))
    failed = check_runs(runs, pins)
    for run in runs:
        if not run["ok"]:
            print(f"run failed: {run['error']}", file=sys.stderr)
    if trace:
        units, values = load_declared()["per_layer"], per_layer_values(runs)
    else:
        units, values = load_declared()["end_to_end"], end_to_end_values(runs, pins)
    print(HEADER)
    print("\n".join(format_rows(workload, values, units)))
    metrics = {
        name: {"value": statistics.median(values[name]), "unit": unit}
        for name, unit in units.items() if values.get(name)
    }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if len(metrics) == len(units) else 1


def report(seed: int, repeats: int, workloads: list, out) -> int:
    """Round-robin repeats of every workload, then one traced run each."""
    pins = load_pins()
    declared = load_declared()
    units = dict(declared["end_to_end"], **REPORT_ONLY_UNITS)
    units.update(declared["per_layer"])
    runs = {name: [] for name in workloads}
    for __ in range(repeats):
        for name in workloads:
            runs[name].extend(spawn(name, seed, False, HARD_LIMIT_S))
    for name in workloads:
        runs[name].extend(spawn(name, seed, True, HARD_LIMIT_S))
    document = {"seed": seed, "repeats": repeats, "workloads": {}}
    print(HEADER)
    failed = 0
    for name in workloads:
        failed += check_runs(runs[name], pins)
        for run in runs[name]:
            if not run["ok"]:
                print(f"{name}: run failed: {run['error']}", file=sys.stderr)
        values = end_to_end_values(runs[name], pins)
        values.update(per_layer_values(runs[name]))
        print("\n".join(format_rows(name, values, units)))
        document["workloads"][name] = {
            metric: dict(summarize(values[metric]), unit=unit)
            for metric, unit in units.items() if values.get(metric)
        }
    if out:
        with open(out, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated subset for the report")
    parser.add_argument("--out", help="write the report as JSON here")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="time this one workload instead of reporting")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout_sources()
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the
    # child in flight instead of orphaning it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload:
        return timed_run(args.workload, args.seed, args.seconds, bool(args.trace))
    names = [name for name in args.workloads.split(",") if name]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown or args.repeats < 1:
        parser.error(f"unknown workloads {unknown}" if unknown
                     else "--repeats must be at least 1")
    return report(args.seed, args.repeats, names, args.out)


if __name__ == "__main__":
    sys.exit(main())
