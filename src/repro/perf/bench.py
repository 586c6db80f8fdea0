"""The pinned benchmark micro-suite behind ``repro-sim bench``.

Each benchmarked workload is generated once, materialised into a list
(so trace generation is excluded from the timings and both runs see
the exact same records), then simulated twice on the same machine
config: once cycle-stepped (``event_driven=False``) and once through
the event-driven fast path.  Both runs must produce identical
architectural results — the bench refuses to report a speedup for a
run that changed the answer.

Reports are plain JSON (see :func:`write_report`); the checked-in
baseline lives at ``benchmarks/BENCH_core.json`` and
:func:`check_against_baseline` gates CI on it: the regression signal
is the stepped/event *speedup ratio*, not absolute wall time — both
modes run back-to-back under the same machine load, so their ratio
survives runner-class and background-load differences that make
absolute-throughput gates flaky.  Absolute rates are still recorded in
every report for human eyes.

A second suite, :func:`run_sampling_bench` (``repro-sim bench
--sampling``, baseline ``benchmarks/BENCH_sampling.json``), runs each
workload detailed and under SMARTS-style sampling and gates on three
things: the detailed reference staying bit-identical, the sampled IPC
error staying inside the baseline's stated bound, and the effective
speedup clearing the stated floor.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from typing import Dict, List, Optional, Sequence

from repro.config import SimConfig
from repro.errors import ReproError
from repro.sampling.paired import run_paired
from repro.sim.presets import baseline_config
from repro.sim.simulator import Simulator
from repro.workloads import cached_workload_trace, workload_names

#: Schema version of the report / baseline JSON.
REPORT_VERSION = 1


class BenchmarkError(ReproError):
    """A benchmark run or baseline comparison failed."""

    retryable = False


def _git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _timed_run(
    config: SimConfig,
    records: list,
    instructions: int,
    warmup: int,
    label: str,
    profile_path: Optional[str] = None,
):
    """One simulation plus its wall time and perf counters.

    With ``profile_path``, the run executes under :mod:`cProfile` and
    the stats dump lands there (readable via ``pstats`` or snakeviz).
    Profiled wall times are inflated by instrumentation — compare them
    only against other profiled runs.
    """
    simulator = Simulator(config)
    profiler = None
    if profile_path is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        result = simulator.run(
            iter(records),
            max_instructions=instructions,
            warmup_instructions=warmup,
            label=label,
        )
    finally:
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(profile_path)
    wall = simulator.perf.elapsed("simulate")
    return result, wall, simulator.perf


def run_bench(
    workloads: Sequence[str],
    config: SimConfig,
    machine: str = "psb",
    instructions: int = 50_000,
    warmup: Optional[int] = None,
    seed: int = 1,
    repeats: int = 3,
    profile_dir: Optional[str] = None,
) -> dict:
    """Benchmark ``workloads`` on ``config``; return a report dict.

    Each mode runs ``repeats`` times and reports its best wall time —
    simulations are deterministic, so repeat variance is pure scheduler
    and cache noise, and the minimum is the honest estimate of the
    code's cost.  Raises :class:`BenchmarkError` if any workload name
    is unknown or if the event-driven run disagrees with the
    cycle-stepped one (a fast path that changes the answer is a bug,
    not a speedup).  With ``profile_dir``, each run also dumps cProfile
    stats to ``<profile_dir>/<workload>-{stepped,event}.prof``.
    """
    known = set(workload_names())
    unknown = [name for name in workloads if name not in known]
    if unknown:
        raise BenchmarkError(
            f"unknown workload(s): {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(known))}"
        )
    if warmup is None:
        warmup = instructions // 3
    if repeats < 1:
        raise BenchmarkError(f"repeats must be >= 1, got {repeats}")
    if profile_dir is not None:
        os.makedirs(profile_dir, exist_ok=True)

    def _profile_path(name: str, mode: str) -> Optional[str]:
        if profile_dir is None:
            return None
        return os.path.join(profile_dir, f"{name}-{mode}.prof")

    def _best_of(mode_config, records, name, mode):
        best_wall = None
        result = perf = None
        for __ in range(repeats):
            result, wall, perf = _timed_run(
                mode_config, records, instructions, warmup,
                f"{name}:{mode}", profile_path=_profile_path(name, mode),
            )
            if best_wall is None or wall < best_wall:
                best_wall = wall
        return result, best_wall, perf

    results: Dict[str, dict] = {}
    for name in workloads:
        # Workload generators are unbounded; take more records than we
        # retire so neither run is starved at the tail, and materialise
        # once (through the compiled-trace cache, the same path sweeps
        # use) so generation cost and generator state never differ
        # between the two runs.
        records = cached_workload_trace(name, seed=seed,
                                        instructions=instructions * 2)

        stepped, stepped_wall, _ = _best_of(
            config.with_event_driven(False), records, name, "stepped"
        )
        event, event_wall, event_perf = _best_of(
            config.with_event_driven(True), records, name, "event"
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
        "machine": machine,
        "instructions": instructions,
        "warmup": warmup,
        "seed": seed,
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "results": results,
    }


def run_sampling_bench(
    workloads: Sequence[str],
    config: SimConfig,
    machine: str = "psb",
    instructions: int = 1_000_000,
    seed: int = 1,
    sample: Sequence[int] = (50_000, 1_000, 500),
    tuned_strata: int = 4,
    tuned_warm_confidence: bool = True,
    paired_sample: Sequence[int] = (50_000, 4_000, 1_000),
    baseline_machine: str = "base",
    base_config: Optional[SimConfig] = None,
    ipc_error_bound: float = 0.10,
    paired_error_bound: float = 0.05,
    speedup_floor: float = 10.0,
    profile_dir: Optional[str] = None,
) -> dict:
    """Benchmark SMARTS-style sampling against detailed simulation.

    Four legs per workload, all over the same cached trace:

    - **detailed** on ``config`` — the reference; the baseline gate
      requires its ``cycles``/``ipc`` to stay *bit-identical* (the
      sampling subsystem must never perturb the detailed path);
    - **sampled** under the classic ``config.with_sampling(*sample)``
      shape with default knobs — pinned bit-identical so historical
      sampled numbers never drift, and timed for the effective-speedup
      floor; its absolute error is recorded but *not* bounded (window
      placement makes it workload-phase-sensitive by nature);
    - **tuned** under the same shape plus stratified placement
      (``tuned_strata``) and timing-aware predictor warm-up — the
      cold-start-corrected absolute estimate, gated at
      ``ipc_error_bound``;
    - **paired** — a matched-pair ``run_paired`` of
      ``baseline_machine`` vs ``machine`` over one shared
      ``paired_sample`` window grid, gated at ``paired_error_bound`` on
      the relative-IPC error against the detailed machine ratio (the
      Figure 5 speedup estimator; pairing cancels the fast-forward
      cold-start bias that the absolute legs can only damp).

    The bounds and floor are stamped into the report;
    :func:`check_sampling_baseline` enforces the *baseline's* stated
    values, so the checked-in bound is the contract.
    """
    known = set(workload_names())
    unknown = [name for name in workloads if name not in known]
    if unknown:
        raise BenchmarkError(
            f"unknown workload(s): {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(known))}"
        )
    period, window, warmup = (int(value) for value in sample)
    sampled_config = config.with_sampling(
        period=period, window=window, warmup=warmup
    )
    tuned_config = config.with_sampling(
        period=period, window=window, warmup=warmup,
        strata=tuned_strata, warm_confidence=tuned_warm_confidence,
    )
    p_period, p_window, p_warmup = (int(value) for value in paired_sample)
    if base_config is None:
        base_config = baseline_config()
    if profile_dir is not None:
        os.makedirs(profile_dir, exist_ok=True)

    def _profile_path(name: str, mode: str) -> Optional[str]:
        if profile_dir is None:
            return None
        return os.path.join(profile_dir, f"{name}-{mode}.prof")

    results: Dict[str, dict] = {}
    for name in workloads:
        records = cached_workload_trace(name, seed=seed,
                                        instructions=instructions)
        detailed, detailed_wall, _ = _timed_run(
            config, records, instructions, 0, f"{name}:detailed",
            profile_path=_profile_path(name, "detailed"),
        )
        base_detailed, base_wall, _ = _timed_run(
            base_config, records, instructions, 0, f"{name}:base-detailed",
            profile_path=_profile_path(name, "base-detailed"),
        )
        sampled, sampled_wall, _ = _timed_run(
            sampled_config, records, instructions, 0, f"{name}:sampled",
            profile_path=_profile_path(name, "sampled"),
        )
        tuned, tuned_wall, _ = _timed_run(
            tuned_config, records, instructions, 0, f"{name}:tuned",
            profile_path=_profile_path(name, "tuned"),
        )
        if detailed.ipc <= 0.0 or base_detailed.ipc <= 0.0:
            raise BenchmarkError(
                f"detailed run of {name!r} retired nothing (ipc 0); "
                "the sampling error is undefined"
            )
        paired_wall = time.perf_counter()
        paired = run_paired(
            {
                baseline_machine: base_config.with_sampling(
                    period=p_period, window=p_window, warmup=p_warmup
                ),
                machine: config.with_sampling(
                    period=p_period, window=p_window, warmup=p_warmup
                ),
            },
            records,
            max_instructions=instructions,
            baseline=baseline_machine,
        )
        paired_wall = time.perf_counter() - paired_wall
        stats = paired.pairs[machine]
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
        "machine": machine,
        "instructions": instructions,
        "seed": seed,
        "sample": {"period": period, "window": window, "warmup": warmup},
        "tuned_sample": {
            "strata": tuned_strata,
            "warm_confidence": bool(tuned_warm_confidence),
        },
        "paired_sample": {
            "period": p_period, "window": p_window, "warmup": p_warmup,
        },
        "baseline_machine": baseline_machine,
        "ipc_error_bound": ipc_error_bound,
        "paired_error_bound": paired_error_bound,
        "speedup_floor": speedup_floor,
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "results": results,
    }


#: Report keys that must match for a sampling baseline to be comparable.
_SAMPLING_SHAPE = (
    "machine", "instructions", "seed", "sample", "tuned_sample",
    "paired_sample", "baseline_machine",
)

#: The stated contract a sampling baseline must carry.
_SAMPLING_CONTRACT = ("ipc_error_bound", "paired_error_bound", "speedup_floor")

#: Each leg of a sampling-bench entry: what the gate calls it, and the
#: fields that must be bit-identical to the baseline's.
_SAMPLING_LEGS = {
    "detailed": ("detailed mode", ("cycles", "instructions", "ipc")),
    "base_detailed": ("detailed baseline-machine run", ("cycles", "ipc")),
    "sampled": ("sampled estimate", ("ipc", "windows")),
    "tuned": ("tuned estimate", ("ipc", "windows")),
    "paired": ("paired estimate", ("rel_ipc", "windows")),
}


def check_sampling_baseline(
    report: dict, baseline: dict, tolerance: float = 0.25
) -> List[str]:
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
      baseline's ``speedup_floor`` scaled by ``1 - tolerance``
      (wall-clock ratios survive machine differences; the slack covers
      load noise).

    A baseline that lacks a comparability key, a bound, or any leg of
    a workload is refused by name: a leg it does not carry would
    otherwise go ungated.
    """
    if not 0.0 <= tolerance < 1.0:
        raise BenchmarkError(
            f"tolerance must be in [0, 1), got {tolerance}"
        )
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
    floor = float(baseline["speedup_floor"]) * (1.0 - tolerance)
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
                f"(tolerance {tolerance * 100:.0f}% -> gate {floor:.2f}x)"
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
        f"{'tuned err':>9} {'pair err':>8} {'speedup':>8} {'windows':>8}",
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
            f"{entry['sampled']['windows']:>8}"
        )
    lines.append(
        f"stated contract: tuned |IPC error| <= "
        f"{report['ipc_error_bound'] * 100:.1f}%, paired |rel-IPC error| "
        f"<= {report['paired_error_bound'] * 100:.1f}%, speedup >= "
        f"{report['speedup_floor']}x"
    )
    return "\n".join(lines)


def write_report(report: dict, path: str) -> None:
    """Write a bench report as stable, diff-friendly JSON."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_baseline(path: str) -> dict:
    """Load and validate a baseline report written by :func:`write_report`."""
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
    return baseline


def check_against_baseline(
    report: dict, baseline: dict, tolerance: float = 0.25
) -> List[str]:
    """Compare a fresh report against a baseline; return failure messages.

    A workload regresses when its event-vs-stepped speedup drops more
    than ``tolerance`` below the baseline's — a load-independent signal
    (both modes share whatever machine the check runs on).  Workloads
    present in only one of the two reports are ignored (the suite may
    grow), as are baseline entries without a positive speedup.
    """
    if not 0.0 <= tolerance < 1.0:
        raise BenchmarkError(
            f"tolerance must be in [0, 1), got {tolerance}"
        )
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
        floor = base_speedup * (1.0 - tolerance)
        if speedup < floor:
            failures.append(
                f"{name}: speedup {speedup:.2f}x is "
                f"{(1.0 - speedup / base_speedup) * 100:.0f}% below baseline "
                f"{base_speedup:.2f}x (tolerance {tolerance * 100:.0f}%)"
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
