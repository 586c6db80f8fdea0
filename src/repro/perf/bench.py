"""The pinned benchmark micro-suite behind ``repro-sim bench``.

Each benchmarked workload is generated once, materialised into a list
(so trace generation is excluded from the timings and both runs see
the exact same records), then simulated twice on the baseline machine
(``base``): once cycle-stepped (``event_driven=False``) and once
through the event-driven fast path.  Both runs must produce identical
architectural results — the bench refuses to report a speedup for a
run that changed the answer.

Reports are plain JSON (see :func:`write_report`); the checked-in
baseline lives at ``benchmarks/BENCH_core.json`` and
:func:`check_against_baseline` gates CI on it: the regression signal
is the stepped/event *speedup ratio*, not absolute wall time — the two
modes take turns, repeat by repeat, under the same machine load, so
their ratio survives runner-class and background-load differences that
make absolute-throughput gates flaky.  Absolute rates are still
recorded in every report for human eyes.

A second suite, :func:`run_sampling_bench` (``repro-sim bench
--sampling``, baseline ``benchmarks/BENCH_sampling.json``), runs each
workload detailed and under SMARTS-style sampling and gates on three
things: the detailed reference staying bit-identical, the sampled IPC
error staying inside the baseline's stated bound, and the effective
speedup clearing the stated floor.

Each suite's machines, seed, warm-up and sampling shapes, and the
sampling suite's stated contract, are constants of this module: both
baselines pin them, so changing one is a reviewed code change plus a
regenerated baseline, never a command-line flag.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from typing import Dict, List, Sequence

from repro.config import SimConfig
from repro.errors import ReproError
from repro.ioutil import atomic_write
from repro.sampling.paired import run_paired
from repro.sim.presets import baseline_config, psb_config
from repro.sim.simulator import Simulator
from repro.workloads import cached_workload_trace, workload_names

#: Schema version of the report / baseline JSON.
REPORT_VERSION = 1

#: The trace seed both suites run.
_SEED = 1

#: The machine the core suite times (:func:`baseline_config`); its
#: warm-up is a third of the run.
_CORE_MACHINE = "base"

#: The sampling suite's machines: it samples ``psb``
#: (:func:`psb_config`), and its paired leg compares it against ``base``.
_SAMPLING_MACHINE = "psb"
_SAMPLING_BASELINE_MACHINE = "base"

#: The sampling suite's legs: the classic shape, what the tuned leg adds
#: to it, and the matched-pair shape (:meth:`SimConfig.with_sampling`
#: keywords, stamped into every report as they stand).
_SAMPLE = {"period": 50_000, "window": 1_000, "warmup": 500}
_TUNED_SAMPLE = {"strata": 4, "warm_confidence": True}
_PAIRED_SAMPLE = {"period": 50_000, "window": 4_000, "warmup": 1_000}

#: The sampling suite's stated contract, stamped into every report:
#: :func:`check_sampling_baseline` enforces the *baseline's* copy, so the
#: checked-in values are the gate.
_SAMPLING_CONTRACT = {
    "ipc_error_bound": 0.10,
    "paired_error_bound": 0.05,
    "speedup_floor": 10.0,
}

#: Slack both gates allow for host noise: the core suite's speedup may
#: fall this fraction below the baseline's, and the sampling suite's
#: ``speedup_floor`` is scaled by one minus it.
TOLERANCE = 0.25

#: Report keys that must match for a sampling baseline to be comparable.
_SAMPLING_SHAPE = (
    "machine", "instructions", "seed", "sample", "tuned_sample",
    "paired_sample", "baseline_machine",
)


class BenchmarkError(ReproError):
    """A benchmark run or baseline comparison failed."""

    retryable = False


def _git_rev() -> str:
    """The short revision of the checkout these sources ran from."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _check_workloads(workloads: Sequence[str]) -> None:
    """Raise :class:`BenchmarkError` naming any unknown workload."""
    known = set(workload_names())
    unknown = [name for name in workloads if name not in known]
    if unknown:
        raise BenchmarkError(
            f"unknown workload(s): {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(known))}"
        )


def _timed_run(
    config: SimConfig,
    records: list,
    instructions: int,
    warmup: int,
    label: str,
):
    """One simulation plus its wall time and perf counters."""
    simulator = Simulator(config)
    result = simulator.run(
        iter(records),
        max_instructions=instructions,
        warmup_instructions=warmup,
        label=label,
    )
    wall = simulator.perf.elapsed("simulate")
    return result, wall, simulator.perf


def _best_of(
    repeats: int,
    legs: Sequence[tuple],
    records: list,
    instructions: int,
    warmup: int,
) -> list:
    """:func:`_timed_run` of each ``(config, label)`` leg ``repeats``
    times, the legs taking turns: per leg, the result, the best wall
    time, and the last run's perf counters.

    Simulations are deterministic, so repeat variance is pure scheduler
    and cache noise, and the minimum is the honest estimate of the
    code's cost.  Taking turns puts a change in the host's speed on
    every leg a ratio divides, not on one of them.  Raises
    :class:`BenchmarkError` if two repeats of a leg disagree.
    """
    best: list = [None] * len(legs)
    for __ in range(repeats):
        for index, (config, label) in enumerate(legs):
            again, wall, perf = _timed_run(
                config, records, instructions, warmup, label
            )
            if best[index] is not None:
                result, best_wall, _ = best[index]
                if again != result:
                    raise BenchmarkError(
                        f"repeated runs of {label!r} disagree: cycles "
                        f"{again.cycles} vs {result.cycles}, IPC "
                        f"{again.ipc:.6f} vs {result.ipc:.6f}"
                    )
                wall = min(wall, best_wall)
            best[index] = (again, wall, perf)
    return best


#: Runs of each leg the sampling bench's effective speedup divides: the
#: best of three, so one slow run does not set the ratio.
_SPEEDUP_REPEATS = 3


def run_bench(
    workloads: Sequence[str],
    instructions: int = 50_000,
    repeats: int = 3,
) -> dict:
    """Benchmark ``workloads`` on ``base``; return a report dict.

    Each mode runs ``repeats`` times, the two taking turns, and reports
    its best wall time (:func:`_best_of`), after a warm-up of a third of
    ``instructions``.  Raises :class:`BenchmarkError` if any workload
    name is unknown, if repeats disagree, or if the event-driven run
    disagrees with the cycle-stepped one (a fast path that changes the
    answer is a bug, not a speedup).
    """
    _check_workloads(workloads)
    if repeats < 1:
        raise BenchmarkError(f"repeats must be >= 1, got {repeats}")
    config = baseline_config()
    warmup = instructions // 3

    results: Dict[str, dict] = {}
    for name in workloads:
        # Workload generators are unbounded; take more records than we
        # retire so neither run is starved at the tail, and materialise
        # once (through the compiled-trace cache, the same path sweeps
        # use) so generation cost and generator state never differ
        # between the two runs.
        records = cached_workload_trace(name, seed=_SEED,
                                        instructions=instructions * 2)

        (stepped, stepped_wall, _), (event, event_wall, event_perf) = _best_of(
            repeats,
            [
                (config.with_event_driven(False), f"{name}:stepped"),
                (config.with_event_driven(True), f"{name}:event"),
            ],
            records, instructions, warmup,
        )
        if (stepped.cycles, stepped.instructions, stepped.ipc) != (
            event.cycles, event.instructions, event.ipc
        ):
            raise BenchmarkError(
                f"event-driven run of {name!r} diverged from cycle-stepped: "
                f"cycles {event.cycles} vs {stepped.cycles}, "
                f"IPC {event.ipc:.6f} vs {stepped.ipc:.6f}"
            )
        results[name] = {
            "cycles": event.cycles,
            "instructions": event.instructions,
            "ipc": round(event.ipc, 6),
            "stepped": {
                "wall_s": round(stepped_wall, 4),
                "cycles_per_sec": round(
                    stepped.cycles / stepped_wall if stepped_wall > 0 else 0.0
                ),
            },
            "event": {
                "wall_s": round(event_wall, 4),
                "cycles_per_sec": round(
                    event.cycles / event_wall if event_wall > 0 else 0.0
                ),
                "records_per_sec": round(
                    event.instructions / event_wall if event_wall > 0 else 0.0
                ),
                "cycles_skipped": int(event_perf.get("core.cycles_skipped")),
            },
            "speedup": round(
                stepped_wall / event_wall if event_wall > 0 else 0.0, 2
            ),
        }

    return {
        "version": REPORT_VERSION,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": _CORE_MACHINE,
        "instructions": instructions,
        "warmup": warmup,
        "seed": _SEED,
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "results": results,
    }


def run_sampling_bench(
    workloads: Sequence[str],
    instructions: int = 1_000_000,
) -> dict:
    """Benchmark SMARTS-style sampling against detailed simulation.

    Four legs per workload, all over the same cached trace:

    - **detailed** on ``psb`` — the reference; the baseline gate
      requires its ``cycles``/``ipc`` to stay *bit-identical* (the
      sampling subsystem must never perturb the detailed path);
    - **sampled** under the classic ``_SAMPLE`` shape with default
      knobs — pinned bit-identical so historical sampled numbers never
      drift, and timed for the effective-speedup floor; its absolute
      error is recorded but *not* bounded (window placement makes it
      workload-phase-sensitive by nature);
    - **tuned** under the same shape plus ``_TUNED_SAMPLE`` (stratified
      placement and timing-aware predictor warm-up) — the
      cold-start-corrected absolute estimate, gated at the stated
      ``ipc_error_bound``;
    - **paired** — a matched-pair ``run_paired`` of ``base`` vs ``psb``
      over one shared ``_PAIRED_SAMPLE`` window grid, gated at the
      stated ``paired_error_bound`` on the relative-IPC error against
      the detailed machine ratio (the Figure 5 speedup estimator;
      pairing cancels the fast-forward cold-start bias that the
      absolute legs can only damp).

    The effective speedup divides the best of three detailed runs by
    the best of three sampled runs (:func:`_best_of`), so one slow run
    does not set it; the tuned leg's speedup (reported, not gated)
    divides by the best of three tuned runs, which take turns with the
    sampled ones.  The baseline-machine and paired legs run once.

    The report stamps ``_SAMPLING_CONTRACT``;
    :func:`check_sampling_baseline` enforces the *baseline's* stated
    values, so the checked-in bound is the contract.
    """
    _check_workloads(workloads)
    config = psb_config()
    base_config = baseline_config()
    sampled_config = config.with_sampling(**_SAMPLE)
    tuned_config = config.with_sampling(**_SAMPLE, **_TUNED_SAMPLE)
    paired_configs = {
        _SAMPLING_BASELINE_MACHINE: base_config.with_sampling(
            **_PAIRED_SAMPLE
        ),
        _SAMPLING_MACHINE: config.with_sampling(**_PAIRED_SAMPLE),
    }

    results: Dict[str, dict] = {}
    for name in workloads:
        records = cached_workload_trace(name, seed=_SEED,
                                        instructions=instructions)
        ((detailed, detailed_wall, _),) = _best_of(
            _SPEEDUP_REPEATS, [(config, f"{name}:detailed")],
            records, instructions, 0,
        )
        base_detailed, base_wall, _ = _timed_run(
            base_config, records, instructions, 0, f"{name}:base-detailed"
        )
        (sampled, sampled_wall, _), (tuned, tuned_wall, _) = _best_of(
            _SPEEDUP_REPEATS,
            [(sampled_config, f"{name}:sampled"),
             (tuned_config, f"{name}:tuned")],
            records, instructions, 0,
        )
        if detailed.ipc <= 0.0 or base_detailed.ipc <= 0.0:
            raise BenchmarkError(
                f"detailed run of {name!r} retired nothing (ipc 0); "
                "the sampling error is undefined"
            )
        paired_wall = time.perf_counter()
        paired = run_paired(
            paired_configs,
            records,
            max_instructions=instructions,
            baseline=_SAMPLING_BASELINE_MACHINE,
        )
        paired_wall = time.perf_counter() - paired_wall
        stats = paired.pairs[_SAMPLING_MACHINE]
        detailed_rel = detailed.ipc / base_detailed.ipc
        rel_err = abs(stats.rel_ipc - detailed_rel) / detailed_rel
        ipc_error = abs(sampled.ipc - detailed.ipc) / detailed.ipc
        tuned_error = abs(tuned.ipc - detailed.ipc) / detailed.ipc
        results[name] = {
            "detailed": {
                "ipc": round(detailed.ipc, 6),
                "cycles": detailed.cycles,
                "instructions": detailed.instructions,
                "wall_s": round(detailed_wall, 4),
            },
            "base_detailed": {
                "ipc": round(base_detailed.ipc, 6),
                "cycles": base_detailed.cycles,
                "wall_s": round(base_wall, 4),
            },
            "sampled": {
                "ipc": round(sampled.ipc, 6),
                "windows": int(sampled.extra.get("windows", 0)),
                "ipc_ci95": round(sampled.extra.get("ipc_ci95", 0.0), 6),
                "measured_instructions": int(
                    sampled.extra.get("measured_instructions", 0)
                ),
                "wall_s": round(sampled_wall, 4),
            },
            "tuned": {
                "ipc": round(tuned.ipc, 6),
                "windows": int(tuned.extra.get("windows", 0)),
                "ipc_ci95": round(tuned.extra.get("ipc_ci95", 0.0), 6),
                "ipc_error": round(tuned_error, 6),
                "wall_s": round(tuned_wall, 4),
                "speedup": round(
                    detailed_wall / tuned_wall if tuned_wall > 0 else 0.0, 2
                ),
            },
            "paired": {
                "rel_ipc": round(stats.rel_ipc, 6),
                "detailed_rel_ipc": round(detailed_rel, 6),
                "rel_err": round(rel_err, 6),
                "ratio_mean": round(stats.ratio_mean, 6),
                "ratio_ci95": round(stats.ratio_ci95, 6),
                "windows": stats.windows,
                "wall_s": round(paired_wall, 4),
            },
            "ipc_error": round(ipc_error, 6),
            "speedup": round(
                detailed_wall / sampled_wall if sampled_wall > 0 else 0.0, 2
            ),
        }

    return {
        "version": REPORT_VERSION,
        "suite": "sampling",
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": _SAMPLING_MACHINE,
        "instructions": instructions,
        "seed": _SEED,
        "sample": dict(_SAMPLE),
        "tuned_sample": dict(_TUNED_SAMPLE),
        "paired_sample": dict(_PAIRED_SAMPLE),
        "baseline_machine": _SAMPLING_BASELINE_MACHINE,
        **_SAMPLING_CONTRACT,
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "results": results,
    }


#: Each leg of a sampling-bench entry: what the gate calls it, and the
#: fields that must be bit-identical to the baseline's.
_SAMPLING_LEGS = {
    "detailed": ("detailed mode", ("cycles", "instructions", "ipc")),
    "base_detailed": ("detailed baseline-machine run", ("cycles", "ipc")),
    "sampled": ("sampled estimate", ("ipc", "windows")),
    "tuned": ("tuned estimate", ("ipc", "windows")),
    "paired": ("paired estimate", ("rel_ipc", "windows")),
}


def check_sampling_baseline(report: dict, baseline: dict) -> List[str]:
    """Gate a sampling-bench report against its checked-in baseline.

    Per-workload checks, all against the *baseline's* stated contract:

    - the detailed references (both machines) must be **bit-identical**
      (cycles, IPC) — the sampling subsystem must not perturb the
      detailed path;
    - the classic sampled estimate must also be bit-identical (sampling
      is deterministic) — its absolute error is *pinned*, not bounded:
      window placement makes it workload-phase-sensitive, which is
      exactly the bias the tuned and paired legs correct;
    - the tuned estimate (stratified placement + timing-aware warm-up)
      must be bit-identical and its relative IPC error must stay within
      the baseline's ``ipc_error_bound``;
    - the paired relative-IPC estimate must be bit-identical and its
      error against the detailed machine ratio must stay within the
      baseline's ``paired_error_bound``;
    - the effective speedup of the classic leg must reach the
      baseline's ``speedup_floor`` scaled by ``1 -`` :data:`TOLERANCE`
      (wall-clock ratios survive machine differences; the slack covers
      load noise).

    A baseline that lacks a comparability key, a bound, or any leg of
    a workload is refused by name: a leg it does not carry would
    otherwise go ungated.
    """
    if baseline.get("suite") != "sampling":
        return [
            "baseline not comparable: it is not a sampling-suite report "
            "(re-generate with 'repro-sim bench --sampling')"
        ]
    failures = [
        f"baseline not comparable: {key} is {baseline.get(key)!r} in the "
        f"baseline but {report.get(key)!r} in this run"
        for key in _SAMPLING_SHAPE
        if baseline.get(key) != report.get(key)
    ]
    failures += [
        f"baseline not comparable: it states no {key}"
        for key in _SAMPLING_CONTRACT
        if key not in baseline
    ]
    if failures:
        return failures
    error_bound = float(baseline["ipc_error_bound"])
    paired_bound = float(baseline["paired_error_bound"])
    floor = float(baseline["speedup_floor"]) * (1.0 - TOLERANCE)
    for name, entry in sorted(report.get("results", {}).items()):
        base_entry = baseline.get("results", {}).get(name)
        if base_entry is None:
            continue
        missing = [leg for leg in _SAMPLING_LEGS if leg not in base_entry]
        if missing:
            failures.append(
                f"{name}: the baseline has no {', '.join(missing)} leg "
                "(re-generate with 'repro-sim bench --sampling')"
            )
            continue
        for leg, (what, fields) in _SAMPLING_LEGS.items():
            ours, theirs = entry.get(leg, {}), base_entry[leg]
            for field in fields:
                if ours.get(field) != theirs.get(field):
                    failures.append(
                        f"{name}: {what} is not bit-identical to the "
                        f"baseline ({field} {ours.get(field)} vs "
                        f"{theirs.get(field)})"
                    )
        tuned_error = float(entry.get("tuned", {}).get("ipc_error", 1.0))
        if tuned_error > error_bound:
            failures.append(
                f"{name}: tuned IPC error {tuned_error * 100:.2f}% "
                f"exceeds the stated bound {error_bound * 100:.2f}%"
            )
        rel_err = float(entry.get("paired", {}).get("rel_err", 1.0))
        if rel_err > paired_bound:
            failures.append(
                f"{name}: paired relative-IPC error "
                f"{rel_err * 100:.2f}% exceeds the stated bound "
                f"{paired_bound * 100:.2f}%"
            )
        speedup = float(entry.get("speedup", 0.0))
        if speedup < floor:
            failures.append(
                f"{name}: effective speedup {speedup:.2f}x is below the "
                f"stated floor {baseline['speedup_floor']}x "
                f"(tolerance {TOLERANCE * 100:.0f}% -> gate {floor:.2f}x)"
            )
    return failures


def format_sampling_report(report: dict) -> str:
    """A compact human-readable table of a sampling-bench report."""
    sample = report["sample"]
    lines = [
        f"bench --sampling: machine={report['machine']} "
        f"instructions={report['instructions']} seed={report['seed']} "
        f"period={sample['period']} window={sample['window']} "
        f"warmup={sample['warmup']} rev={report['git_rev']}",
        f"{'workload':<12} {'det IPC':>9} {'samp IPC':>9} {'err':>7} "
        f"{'tuned err':>9} {'pair err':>8} {'speedup':>8} {'tuned x':>8} "
        f"{'windows':>8}",
    ]
    for name, entry in sorted(report["results"].items()):
        lines.append(
            f"{name:<12} "
            f"{entry['detailed']['ipc']:>9.4f} "
            f"{entry['sampled']['ipc']:>9.4f} "
            f"{entry['ipc_error'] * 100:>6.2f}% "
            f"{entry['tuned']['ipc_error'] * 100:>8.2f}% "
            f"{entry['paired']['rel_err'] * 100:>7.2f}% "
            f"{entry['speedup']:>7.2f}x "
            f"{entry['tuned']['speedup']:>7.2f}x "
            f"{entry['sampled']['windows']:>8}"
        )
    lines.append(
        f"stated contract: tuned |IPC error| <= "
        f"{report['ipc_error_bound'] * 100:.1f}%, paired |rel-IPC error| "
        f"<= {report['paired_error_bound'] * 100:.1f}%, speedup >= "
        f"{report['speedup_floor']}x (tuned x is reported, not gated)"
    )
    return "\n".join(lines)


def write_report(report: dict, path: str) -> None:
    """Write a bench report as stable, diff-friendly JSON, atomically."""
    atomic_write(path, json.dumps(report, indent=2, sort_keys=True) + "\n")


def load_baseline(path: str, suite: str = "core") -> dict:
    """Load and validate a baseline report written by :func:`write_report`.

    ``suite`` is the suite the baseline must come from: ``"core"`` (a
    report without a ``suite`` stamp) or ``"sampling"``.
    """
    try:
        with open(path) as handle:
            baseline = json.load(handle)
    except OSError as error:
        raise BenchmarkError(f"cannot read baseline {path!r}: {error}")
    except ValueError as error:
        raise BenchmarkError(f"baseline {path!r} is not valid JSON: {error}")
    if not isinstance(baseline, dict) or "results" not in baseline:
        raise BenchmarkError(f"baseline {path!r} has no 'results' section")
    if baseline.get("version") != REPORT_VERSION:
        raise BenchmarkError(
            f"baseline {path!r} has version {baseline.get('version')!r}, "
            f"expected {REPORT_VERSION} (re-generate with 'repro-sim bench')"
        )
    found = baseline.get("suite", "core")
    if found != suite:
        raise BenchmarkError(
            f"baseline {path!r} is a {found}-suite report, not a "
            f"{suite}-suite one"
        )
    return baseline


def check_against_baseline(report: dict, baseline: dict) -> List[str]:
    """Compare a fresh report against a baseline; return failure messages.

    A workload regresses when its event-vs-stepped speedup drops more
    than :data:`TOLERANCE` below the baseline's — a load-independent signal
    (both modes share whatever machine the check runs on).  Workloads
    present in only one of the two reports are ignored (the suite may
    grow), as are baseline entries without a positive speedup.
    """
    failures: List[str] = []
    # Throughput only compares like-for-like: a baseline recorded at a
    # different run shape would make the gate silently meaningless.
    for key in ("machine", "instructions", "warmup", "seed"):
        if key in baseline and baseline[key] != report.get(key):
            failures.append(
                f"baseline not comparable: {key} is {baseline[key]!r} "
                f"in the baseline but {report.get(key)!r} in this run"
            )
    if failures:
        return failures
    for name, entry in sorted(report.get("results", {}).items()):
        base_entry = baseline.get("results", {}).get(name)
        if base_entry is None:
            continue
        base_speedup = base_entry.get("speedup", 0.0)
        if base_speedup <= 0.0:
            continue
        speedup = entry.get("speedup", 0.0)
        floor = base_speedup * (1.0 - TOLERANCE)
        if speedup < floor:
            failures.append(
                f"{name}: speedup {speedup:.2f}x is "
                f"{(1.0 - speedup / base_speedup) * 100:.0f}% below baseline "
                f"{base_speedup:.2f}x (tolerance {TOLERANCE * 100:.0f}%)"
            )
    return failures


def format_report(report: dict) -> str:
    """A compact human-readable table of a bench report."""
    lines = [
        f"bench: machine={report['machine']} "
        f"instructions={report['instructions']} seed={report['seed']} "
        f"rev={report['git_rev']}",
        f"{'workload':<12} {'stepped':>9} {'event':>9} {'speedup':>8} "
        f"{'Mcyc/s':>8} {'skipped':>10}",
    ]
    for name, entry in sorted(report["results"].items()):
        lines.append(
            f"{name:<12} "
            f"{entry['stepped']['wall_s']:>8.2f}s "
            f"{entry['event']['wall_s']:>8.2f}s "
            f"{entry['speedup']:>7.2f}x "
            f"{entry['event']['cycles_per_sec'] / 1e6:>8.2f} "
            f"{entry['event']['cycles_skipped']:>10}"
        )
    return "\n".join(lines)
