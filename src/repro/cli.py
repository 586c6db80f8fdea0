"""Command-line interface: run paper machines from the shell.

Usage (also available as ``python -m repro``)::

    repro-sim workloads
    repro-sim run health --machine psb --instructions 50000
    repro-sim run health --invariants full
    repro-sim run health --instructions 1000000 --sample 50000:1000:500
    repro-sim run health --metrics --trace-events ev.jsonl
    repro-sim report --events ev.jsonl --out report.html
    repro-sim compare health --instructions 50000
    repro-sim compare health --machines base,psb --instructions 1000000 \
        --sample 50000:1000:500 --paired-out camp/paired.json
    repro-sim trace burg --out burg.trace --instructions 20000
    repro-sim check health --machine psb --instructions 20000
    repro-sim sweep health --campaign-dir camp --timeout 120 --retries 1 \
        --snapshot-every 50000
    repro-sim audit camp

Exit status: 0 on success, 1 on any :class:`~repro.errors.ReproError`
(printed as a one-line message, never a traceback), 130 on Ctrl-C.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Dict, List, Optional

from repro.analysis.report import ascii_table
from repro.config import BufferSharing, InvariantLevel, SimConfig
from repro.errors import ConfigError, ReproError
from repro.sim import baseline_config, paper_configs, simulate
from repro.sim.presets import (
    demand_markov_config,
    min_delta_config,
    next_line_config,
    sequential_config,
    sharing_configs,
)
from repro.trace.io import save_trace
from repro.workloads import WORKLOADS, get_workload, workload_names

#: Machine names accepted by --machine and --machines.
MACHINES: Dict[str, Callable[[], SimConfig]] = {
    "base": baseline_config,
    "stride": lambda: paper_configs()["Stride"],
    "2miss-rr": lambda: paper_configs()["2Miss-RR"],
    "2miss-priority": lambda: paper_configs()["2Miss-Priority"],
    "confalloc-rr": lambda: paper_configs()["ConfAlloc-RR"],
    "psb": lambda: paper_configs()["ConfAlloc-Priority"],
    # PSB with the stream-buffer entries shared as one online-allocated
    # pool instead of the paper's fixed 8 x 4 partition (see
    # docs/buffer_sharing.md); equivalently `--buffer-sharing` on run.
    "psb-harmonic": lambda: sharing_configs()["harmonic"],
    "psb-credence": lambda: sharing_configs()["credence"],
    "jouppi": sequential_config,
    "min-delta": min_delta_config,
    "next-line": next_line_config,
    "demand-markov": demand_markov_config,
}

#: The Figure 5 machines, baseline first: what ``compare`` runs by default.
FIGURE5_MACHINES = "base,stride,2miss-rr,2miss-priority,confalloc-rr,psb"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description=(
            "Reproduction of 'Predictor-Directed Stream Buffers' "
            "(MICRO-33, 2000)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("workloads", help="list the benchmark stand-ins")

    run = commands.add_parser("run", help="simulate one machine")
    _add_run_arguments(run, optional_workload=True)
    run.add_argument(
        "--machine", choices=sorted(MACHINES), default="psb",
        help="which machine to simulate (default: psb)",
    )
    run.add_argument(
        "--trace", default=None, metavar="PATH",
        help="simulate a saved trace file instead of a workload",
    )
    run.add_argument(
        "--lax", action="store_true",
        help="with --trace: skip malformed records instead of failing "
             "(the skipped count is reported in the summary)",
    )
    run.add_argument(
        "--metrics", action="store_true",
        help="sample per-component metrics over time and write them as "
             "JSON (see --metrics-out); 'repro-sim report' renders them",
    )
    run.add_argument(
        "--metrics-interval", type=int, default=1000, metavar="CYCLES",
        help="cycles between metric samples (default: 1000)",
    )
    run.add_argument(
        "--metrics-out", default="metrics.json", metavar="PATH",
        help="where --metrics writes its payload (default: metrics.json)",
    )
    run.add_argument(
        "--trace-events", default=None, metavar="PATH",
        help="record structured events (allocations, prefetch lifecycle, "
             "priority changes, demand misses) to PATH as JSON Lines",
    )
    run.add_argument(
        "--trace-capacity", type=int, default=None, metavar="N",
        help="event ring-buffer size; oldest events drop beyond it "
             "(default: 65536)",
    )
    run.add_argument(
        "--trace-filter", default=None, metavar="CATS",
        help="comma-separated event categories to keep "
             "(alloc,prefetch,priority,demand,integrity,pool; "
             "default: all)",
    )
    _add_sample_argument(run)
    _add_sharing_arguments(run)

    compare = commands.add_parser(
        "compare",
        help="run several machines on one workload and compare them",
        description=(
            "Run the machines on one workload and print each one's IPC, "
            "speedup over the baseline machine ('base' when listed, else "
            "the first) and prefetch accuracy.  With --sample the "
            "machines run as a matched-pair comparison over one shared "
            "window grid, so the fast-forward cold-start bias cancels "
            "in the speedups."
        ),
    )
    _add_run_arguments(compare)
    _add_machines_argument(compare, FIGURE5_MACHINES)
    _add_sample_argument(compare)
    compare.add_argument(
        "--paired-out", default=None, metavar="PATH",
        help="with --sample: write the matched-pair comparison "
             "(PairedResult manifest) as JSON to PATH; name it "
             "DIR/paired.json and 'repro-sim report --campaign DIR' "
             "renders it as a Paired sampling panel",
    )

    trace = commands.add_parser(
        "trace",
        help="save a workload trace file, or compile one to binary",
        description=(
            "'trace WORKLOAD --out X' saves a text trace; "
            "'trace compile SOURCE --out X' lowers a text trace file or "
            "a workload name into the packed binary format (loads ~4x "
            "faster, auto-detected by every trace reader)."
        ),
    )
    trace.add_argument(
        "workload", metavar="workload|compile",
        help="a workload name, or 'compile'",
    )
    trace.add_argument(
        "source", nargs="?", default=None,
        help="for compile: the input text trace path or workload name",
    )
    trace.add_argument("--out", required=True, help="output path")
    trace.add_argument("--instructions", type=int, default=None,
                       help="records to write (default: 20000 for "
                            "workloads, all for trace files)")
    trace.add_argument("--seed", type=int, default=1)
    trace.add_argument(
        "--binary", action="store_true",
        help="write the binary format directly (same as compiling)",
    )

    bench = commands.add_parser(
        "bench",
        help="run the perf micro-suite; write BENCH_core.json",
        description=(
            "Benchmark the event-driven fast path against the "
            "cycle-stepped loop over a pinned workload suite.  Writes a "
            "JSON report and, with --check, fails when event-mode "
            "throughput regresses against a checked-in baseline."
        ),
    )
    bench.add_argument(
        "--workloads", default=None,
        help="comma-separated workload names (default: all six)",
    )
    bench.add_argument(
        "--machine", choices=sorted(MACHINES), default=None,
        help="machine config to benchmark (default: base; psb with "
             "--sampling, which refuses base: its paired leg compares "
             "against base)",
    )
    bench.add_argument(
        "--instructions", type=int, default=None,
        help="default: 50000; 10000 with --quick; 1000000 with --sampling",
    )
    bench.add_argument("--warmup", type=int, default=None,
                       help="default: instructions // 3 (core suite only)")
    bench.add_argument("--seed", type=int, default=1)
    bench.add_argument(
        "--repeats", type=int, default=None,
        help="runs per mode; best wall time wins (core suite only; "
             "default: 3)",
    )
    bench.add_argument(
        "--quick", action="store_true", default=None,
        help="small instruction budget and pointer workloads only "
             "(CI smoke; core suite only)",
    )
    bench.add_argument(
        "--out", default=None,
        help="report path (default: BENCH_core.json; BENCH_sampling.json "
             "with --sampling)",
    )
    bench.add_argument(
        "--check", default=None, metavar="BASELINE",
        help="compare against a baseline report; exit 1 on regression",
    )
    bench.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed fractional throughput drop vs baseline "
             "(default: 0.25)",
    )
    bench.add_argument(
        "--profile", default=None, metavar="DIR",
        help="dump per-run cProfile stats into DIR",
    )
    bench.add_argument(
        "--sampling", action="store_true",
        help="run the sampling suite instead: each workload detailed vs "
             "SMARTS-sampled (classic, tuned, and matched-pair legs), "
             "gating on detailed bit-identity, tuned IPC error, paired "
             "relative-IPC error, and effective speedup (defaults: "
             "machine psb, 1000000 instructions, out BENCH_sampling.json)",
    )
    bench.add_argument(
        "--sample", default=None, metavar="PERIOD:WINDOW:WARMUP",
        help="with --sampling: the classic leg's sampling shape "
             "(default: 50000:1000:500)",
    )
    bench.add_argument(
        "--error-bound", type=float, default=None, metavar="FRACTION",
        help="with --sampling: stated |IPC error| bound for the tuned "
             "(stratified + warm-confidence) leg stamped into the report "
             "(default: 0.10)",
    )
    bench.add_argument(
        "--paired-bound", type=float, default=None, metavar="FRACTION",
        help="with --sampling: stated |relative-IPC error| bound for the "
             "matched-pair leg stamped into the report (default: 0.05)",
    )
    bench.add_argument(
        "--speedup-floor", type=float, default=None, metavar="X",
        help="with --sampling: stated effective-speedup floor stamped "
             "into the report (default: 10.0)",
    )

    report = commands.add_parser(
        "report",
        help="render a run or a campaign into markdown/HTML",
        description=(
            "Two modes: by default, render the metrics payload of a "
            "previous 'run --metrics' (plus its --trace-events file if "
            "given) into a single-run report; with --campaign DIR, "
            "summarize a sweep campaign from its manifest, or the "
            "paired.json a 'compare --sample --paired-out' wrote there.  "
            "An --out ending in .html renders a self-contained HTML page "
            "instead of markdown."
        ),
    )
    report.add_argument(
        "--out", default="report.md",
        help="output path; .html renders HTML (default: report.md)",
    )
    report.add_argument(
        "--metrics", default="metrics.json", metavar="PATH",
        help="metrics payload from 'run --metrics' "
             "(default: metrics.json)",
    )
    report.add_argument(
        "--events", default=None, metavar="PATH",
        help="JSONL event file from 'run --trace-events' to summarize",
    )
    report.add_argument(
        "--campaign", default=None, metavar="DIR",
        help="render a sweep campaign directory instead of a single run",
    )

    sweep = commands.add_parser(
        "sweep",
        help="run a resilient multi-machine campaign on one workload",
        description=(
            "Run several machines over one workload through the campaign "
            "runner: each point is process-isolated, timed out, retried "
            "with backoff, and checkpointed so an interrupted campaign "
            "resumes where it left off."
        ),
    )
    _add_run_arguments(sweep)
    _add_machines_argument(sweep, "all")
    sweep.add_argument(
        "--campaign-dir", default=None,
        help="directory for checkpoint.jsonl and manifest.json "
             "(omit to run without checkpointing)",
    )
    sweep.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="points to run at once across persistent worker "
             "processes (default: 1; more than 1 requires process "
             "isolation)",
    )
    sweep.add_argument(
        "--progress", action="store_true",
        help="print a progress line to stderr after every point "
             "(done/failed/in-flight tallies and an ETA)",
    )
    sweep.add_argument(
        "--timeout", type=float, default=None,
        help="wall-clock seconds per attempt (default: unlimited)",
    )
    sweep.add_argument(
        "--retries", type=int, default=0,
        help="retries per point for retryable failures (default: 0)",
    )
    sweep.add_argument(
        "--resume", action="store_true",
        help="skip points already recorded in the campaign checkpoint",
    )
    sweep.add_argument(
        "--on-error", choices=("skip", "fail"), default="skip",
        help="skip-and-record failed points (default) or fail fast",
    )
    sweep.add_argument(
        "--no-isolate", action="store_true",
        help="run points in-process instead of in worker processes "
             "(faster, but a crash aborts the campaign and --timeout "
             "is unavailable)",
    )
    sweep.add_argument(
        "--snapshot-every", type=int, default=None, metavar="CYCLES",
        help="snapshot each run every CYCLES cycles so a timed-out "
             "attempt resumes mid-run instead of restarting "
             "(requires --campaign-dir)",
    )
    sweep.add_argument(
        "--golden", action="store_true",
        help="diff every completed point against the golden functional "
             "model (requires --warmup 0)",
    )
    _add_sample_argument(sweep)
    _add_sharing_arguments(sweep)
    sweep.add_argument(
        "--chaos-seed", type=int, default=None, metavar="SEED",
        help="inject a deterministic, seeded schedule of environment "
             "faults (failing checkpoint appends, worker kills, cache "
             "corruption) for durability testing; requires process "
             "isolation",
    )
    sweep.add_argument(
        "--chaos-poison", type=int, default=0, metavar="N",
        help="with --chaos-seed: how many points have their worker "
             "killed on every launch until poisoned (default: 0)",
    )
    sweep.add_argument(
        "--max-worker-kills", type=int, default=3, metavar="N",
        help="worker deaths a point survives before it is marked "
             "poisoned and the campaign moves on (default: 3)",
    )

    audit = commands.add_parser(
        "audit",
        help="verify a campaign directory is consistent",
        description=(
            "Offline consistency audit of a campaign directory: "
            "checkpoint line CRCs, run_id/fingerprint coherence, result "
            "round-trips, manifest-vs-checkpoint agreement, and leftover "
            "snapshots/temp files.  Exit status 1 when any "
            "error-level issue is found (the artifacts disagree with "
            "each other); warnings report damage the runner already "
            "recovered from."
        ),
    )
    audit.add_argument(
        "campaign_dir", metavar="CAMPAIGN_DIR",
        help="campaign directory (checkpoint.jsonl + manifest.json)",
    )
    audit.add_argument(
        "--strict", action="store_true",
        help="treat warnings as failures too",
    )

    check = commands.add_parser(
        "check",
        help="validate a machine against the golden functional model",
        description=(
            "Run one machine with full invariant checking and no warm-up, "
            "replay the same trace through the obviously-correct "
            "functional cache model, and diff the two through the "
            "conservation laws.  Exit status 1 if any law is violated."
        ),
    )
    _add_run_arguments(check)
    check.add_argument(
        "--machine", choices=sorted(MACHINES), default="psb",
        help="which machine to validate (default: psb)",
    )
    check.add_argument(
        "--tolerance", type=float, default=None, metavar="RATE",
        help="allowed |timed - golden| primary miss-rate gap "
             "(default: 0.05)",
    )
    return parser


def _add_run_arguments(
    parser: argparse.ArgumentParser, optional_workload: bool = False
) -> None:
    if optional_workload:
        parser.add_argument("workload", choices=workload_names(), nargs="?")
    else:
        parser.add_argument("workload", choices=workload_names())
    parser.add_argument("--instructions", type=int, default=50_000)
    parser.add_argument("--warmup", type=int, default=None,
                        help="default: instructions // 3")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--invariants", choices=("off", "cheap", "full"), default="off",
        help="runtime invariant checking level: 'cheap' samples the "
             "hook points, 'full' checks every cycle (default: off)",
    )


def _add_machines_argument(
    parser: argparse.ArgumentParser, default: str
) -> None:
    parser.add_argument(
        "--machines", default=default,
        help=f"comma-separated machine names, or 'all' (default: {default})",
    )


def _machines_of(args: argparse.Namespace) -> List[str]:
    """The machine names ``--machines`` selects, in the order given."""
    if args.machines == "all":
        return sorted(MACHINES)
    machines = [name.strip() for name in args.machines.split(",") if name.strip()]
    unknown = [name for name in machines if name not in MACHINES]
    if unknown:
        raise ConfigError(
            f"unknown machine(s) {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(MACHINES))}",
            field=f"{args.command}.machines",
        )
    if not machines:
        raise ConfigError(
            "no machines selected", field=f"{args.command}.machines"
        )
    twice = sorted({name for name in machines if machines.count(name) > 1})
    if twice:
        raise ConfigError(
            f"machine(s) listed more than once: {', '.join(twice)}",
            field=f"{args.command}.machines",
        )
    return machines


def _add_sharing_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--buffer-sharing", choices=("fixed", "harmonic", "credence"),
        default="fixed", metavar="POLICY",
        help="stream-buffer entry ownership: 'fixed' is the paper's "
             "static 8x4 partition (default, bit-identical to older "
             "releases); 'harmonic' and 'credence' share the entries as "
             "one online-allocated pool (see docs/buffer_sharing.md)",
    )
    parser.add_argument(
        "--pool-entries", type=int, default=None, metavar="N",
        help="shared-pool capacity for the pooled sharing policies "
             "(default: num_buffers x entries_per_buffer = 32; ignored "
             "under 'fixed')",
    )


def _apply_sharing(args: argparse.Namespace, config: SimConfig) -> SimConfig:
    """Fold the ``--buffer-sharing`` flags into a machine config."""
    sharing = getattr(args, "buffer_sharing", "fixed")
    pool_entries = getattr(args, "pool_entries", None)
    if sharing == "fixed" and pool_entries is None:
        return config
    if pool_entries is not None and sharing == "fixed":
        raise ConfigError(
            "--pool-entries only applies to the pooled sharing policies; "
            "pick --buffer-sharing harmonic or credence",
            field="buffer_sharing",
        )
    return config.with_sharing(BufferSharing(sharing), pool_entries)


def _add_sample_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sample", default=None, metavar="PERIOD:WINDOW:WARMUP",
        help="run under SMARTS-style systematic sampling: per PERIOD "
             "trace records, fast-forward to a detailed window of "
             "WARMUP discarded + WINDOW measured instructions (e.g. "
             "50000:1000:500); implies --warmup 0",
    )
    parser.add_argument(
        "--sample-strata", type=int, default=1, metavar="S",
        help="with --sample: stratified window placement — split each "
             "period into S sub-periods measuring WINDOW/S instructions "
             "at each sub-midpoint (same measured budget, S times the "
             "windows; S must divide PERIOD, WINDOW, and WARMUP; "
             "default: 1, classic placement)",
    )
    parser.add_argument(
        "--warm-confidence", action="store_true",
        help="with --sample: timing-aware predictor warm-up — "
             "fast-forward warms stride/markov confidence counters and "
             "stream-buffer priorities at a detuned rate instead of "
             "full training fidelity",
    )


def _parse_sample(spec: str) -> tuple:
    """Parse a ``PERIOD:WINDOW:WARMUP`` sampling shape."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(
            f"--sample wants PERIOD:WINDOW:WARMUP, got {spec!r}",
            field="sample",
        )
    try:
        period, window, warmup = (int(part) for part in parts)
    except ValueError:
        raise ConfigError(
            f"--sample wants three integers, got {spec!r}",
            field="sample",
        )
    return period, window, warmup


def _apply_sample(args: argparse.Namespace, config: SimConfig) -> SimConfig:
    """Fold the ``--sample*`` flags into a machine config, if given."""
    if getattr(args, "sample", None) is None:
        if getattr(args, "sample_strata", 1) != 1:
            raise ConfigError(
                "--sample-strata only applies with --sample",
                field="sample",
            )
        if getattr(args, "warm_confidence", False):
            raise ConfigError(
                "--warm-confidence only applies with --sample",
                field="sample",
            )
        return config
    if args.warmup not in (None, 0):
        raise ConfigError(
            "--sample replaces the run-level warm-up with per-window "
            "warm-ups; drop --warmup or pass --warmup 0",
            field="sample",
        )
    period, window, warmup = _parse_sample(args.sample)
    return config.with_sampling(
        period=period,
        window=window,
        warmup=warmup,
        strata=getattr(args, "sample_strata", 1),
        warm_confidence=getattr(args, "warm_confidence", False),
    )


def _warmup_of(args: argparse.Namespace) -> int:
    if getattr(args, "sample", None) is not None:
        return 0
    if args.warmup is not None:
        return args.warmup
    return args.instructions // 3


def _apply_invariants(args: argparse.Namespace, config: SimConfig) -> SimConfig:
    """Apply the ``--invariants`` level to a machine config."""
    level = InvariantLevel(args.invariants)
    if level is InvariantLevel.OFF:
        return config
    return config.with_invariants(level)


def _config_of(args: argparse.Namespace, machine: str) -> SimConfig:
    """Build the machine config with the requested invariant level."""
    return _apply_invariants(args, MACHINES[machine]())


def _command_workloads() -> int:
    rows = [
        [name, cls.description] for name, cls in WORKLOADS.items()
    ]
    print(ascii_table(["name", "description"], rows, title="Workloads"))
    return 0


def _command_run(args: argparse.Namespace) -> int:
    if args.trace is None and args.workload is None:
        raise ConfigError(
            "run: give a workload name or --trace PATH",
            field="run.workload",
        )
    if args.lax and args.trace is None:
        raise ConfigError(
            "run: --lax only applies to --trace (generated workloads "
            "cannot contain malformed records)",
            field="run.lax",
        )
    config = _apply_sample(
        args, _apply_sharing(args, _config_of(args, args.machine))
    )
    if args.metrics:
        config = config.with_metrics(args.metrics_interval)
    event_trace = None
    if args.trace_events is not None:
        from repro.obs import EventTrace, parse_categories
        from repro.obs.tracing import DEFAULT_CAPACITY

        event_trace = EventTrace(
            capacity=args.trace_capacity or DEFAULT_CAPACITY,
            categories=parse_categories(args.trace_filter),
        )
    skipped: list = []
    if args.trace is not None:
        from repro.trace.io import load_trace

        records = load_trace(args.trace, strict=not args.lax, errors=skipped)
        source_name = args.trace
    else:
        records = get_workload(args.workload, seed=args.seed)
        source_name = args.workload
    from repro.sim.simulator import Simulator

    simulator = Simulator(config, event_trace=event_trace)
    result = simulator.run(
        records,
        max_instructions=args.instructions,
        warmup_instructions=_warmup_of(args),
        label=args.machine,
    )
    rows = [
        ["IPC", f"{result.ipc:.3f}"],
        ["cycles", f"{result.cycles}"],
        ["L1 miss rate", f"{result.l1_miss_rate * 100:.1f}%"],
        ["avg load latency", f"{result.avg_load_latency:.2f} cycles"],
        ["branch mispredict", f"{result.branch_misprediction_rate * 100:.1f}%"],
        ["L1-L2 bus busy", f"{result.l1_l2_bus_utilization * 100:.1f}%"],
        ["L2-mem bus busy", f"{result.l2_mem_bus_utilization * 100:.1f}%"],
        ["prefetches issued", f"{result.prefetches_issued}"],
        ["prefetch accuracy", f"{result.prefetch_accuracy * 100:.1f}%"],
    ]
    if result.extra.get("sampled"):
        rows.append(
            ["sampled windows",
             f"{int(result.extra.get('windows', 0))} x "
             f"{int(result.extra.get('sample_window', 0))} instr "
             f"(period {int(result.extra.get('sample_period', 0))})"]
        )
        rows.append(
            ["IPC 95% CI", f"+/- {result.extra.get('ipc_ci95', 0.0):.4f}"]
        )
        rows.append(
            ["fast-forwarded",
             f"{int(result.extra.get('ff_instructions', 0))} records"]
        )
    if args.invariants != "off":
        rows.append(
            ["invariant checks",
             f"{int(result.extra.get('invariant_checks', 0))} ({args.invariants})"]
        )
    if args.lax:
        rows.append(["trace records skipped", str(len(skipped))])
    print(
        ascii_table(
            ["statistic", "value"], rows,
            title=f"{source_name} on '{args.machine}'",
        )
    )
    if skipped:
        print(
            f"warning: skipped {len(skipped)} malformed trace record(s) "
            "(--lax)", file=sys.stderr,
        )
    if args.metrics:
        import json

        from repro.obs import metrics_payload

        payload = metrics_payload(
            simulator, result,
            meta={
                "workload": source_name,
                "machine": args.machine,
                "seed": args.seed,
            },
        )
        with open(args.metrics_out, "w") as handle:
            json.dump(payload, handle, indent=1)
        print(f"wrote metrics to {args.metrics_out}")
    if event_trace is not None:
        written = event_trace.write_jsonl(args.trace_events)
        note = ""
        if event_trace.dropped:
            note = (f" ({event_trace.dropped} older events dropped by the "
                    f"ring buffer)")
        print(f"wrote {written} events to {args.trace_events}{note}")
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    machines = _machines_of(args)
    if args.paired_out is not None and args.sample is None:
        raise ConfigError(
            "compare: --paired-out only applies with --sample",
            field="compare.paired_out",
        )
    configs = {
        name: _apply_sample(args, _config_of(args, name)) for name in machines
    }
    baseline = "base" if "base" in configs else machines[0]
    title = f"machines on '{args.workload}', baseline '{baseline}'"
    if args.sample is None:
        paired = None
        results = {
            name: simulate(
                config,
                get_workload(args.workload, seed=args.seed),
                max_instructions=args.instructions,
                warmup_instructions=_warmup_of(args),
                label=name,
            )
            for name, config in configs.items()
        }
        headers = ["machine", "IPC", "speedup", "accuracy"]
    else:
        from repro.sampling.paired import run_paired

        paired = run_paired(
            configs,
            get_workload(args.workload, seed=args.seed),
            max_instructions=args.instructions,
            baseline=baseline,
        )
        results = paired.results
        headers = ["machine", "IPC (sampled)", "speedup", "window ratio",
                   "accuracy"]
        title += (
            f" (matched-pair sample, "
            f"{len(paired.window_rows[baseline])} windows)"
        )
    rows = []
    for name, result in results.items():
        if name == baseline:
            against = ["-"] * (len(headers) - 3)
        elif paired is None:
            against = [f"{result.speedup_over(results[baseline]):+.1f}%"]
        else:
            stats = paired.pairs[name]
            against = [
                f"{stats.speedup_percent:+.1f}%",
                f"{stats.ratio_mean:.3f} ± {stats.ratio_ci95:.3f}",
            ]
        accuracy = (
            "-" if result.prefetches_issued == 0
            else f"{result.prefetch_accuracy * 100:.0f}%"
        )
        rows.append([name, f"{result.ipc:.3f}", *against, accuracy])
    print(ascii_table(headers, rows, title=title))
    if paired is None:
        return 0
    print(
        "speedups are paired estimates: every machine was sampled over "
        "the same window grid, so fast-forward bias cancels in the "
        "ratios"
    )
    if args.paired_out is not None:
        from repro.ioutil import atomic_write_text

        # Atomic: a kill mid-write must not leave a torn file that
        # `report --campaign` then refuses.
        atomic_write_text(
            args.paired_out, json.dumps(paired.to_dict(), indent=2)
        )
        print(f"wrote paired manifest to {args.paired_out}")
    return 0


def _command_report(args: argparse.Namespace) -> int:
    from repro.obs import report as obs_report

    if args.campaign is not None:
        document = obs_report.campaign_report(args.campaign)
        title = f"Campaign report: {args.campaign}"
    else:
        payload = obs_report.load_metrics(args.metrics)
        events = None
        if args.events is not None:
            from repro.obs import read_jsonl

            events = read_jsonl(args.events)
        meta = payload.get("meta", {})
        title = "Run report"
        if meta.get("workload"):
            title = (
                f"Run report: {meta['workload']} on "
                f"'{meta.get('machine', '?')}'"
            )
        document = obs_report.run_report(payload, events=events, title=title)
    kind = obs_report.write_report(document, args.out, title=title)
    print(f"wrote {kind} report to {args.out}")
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    if args.workload == "compile":
        return _command_trace_compile(args)
    if args.workload not in workload_names():
        raise ConfigError(
            f"unknown workload {args.workload!r}; known: "
            f"{', '.join(workload_names())} (or 'compile')",
            field="trace.workload",
        )
    if args.source is not None:
        raise ConfigError(
            "trace: a second positional is only valid with 'compile'",
            field="trace.source",
        )
    limit = 20_000 if args.instructions is None else args.instructions
    records = get_workload(args.workload, seed=args.seed)
    if args.binary:
        from repro.trace.binfmt import compile_trace

        written = compile_trace(args.out, records, limit=limit)
        print(f"compiled {written} records to {args.out}")
    else:
        written = save_trace(args.out, records, limit=limit)
        print(f"wrote {written} records to {args.out}")
    return 0


def _command_trace_compile(args: argparse.Namespace) -> int:
    from repro.trace.binfmt import compile_trace
    from repro.trace.io import load_trace

    if args.source is None:
        raise ConfigError(
            "trace compile: give an input trace path or workload name",
            field="trace.source",
        )
    if args.source in workload_names():
        limit = 20_000 if args.instructions is None else args.instructions
        records = get_workload(args.source, seed=args.seed)
    else:
        # A text trace file is finite; compile all of it unless capped.
        limit = 0 if args.instructions is None else args.instructions
        records = load_trace(args.source)
    written = compile_trace(args.out, records, limit=limit)
    print(f"compiled {written} records to {args.out}")
    return 0


#: Options only one ``bench`` suite reads, as (option, argparse dest);
#: each defaults to None.  The other suite rejects them instead of
#: silently ignoring them.
_BENCH_SUITE_OPTIONS = {
    "core": (("--quick", "quick"), ("--warmup", "warmup"),
             ("--repeats", "repeats")),
    "sampling": (("--sample", "sample"), ("--error-bound", "error_bound"),
                 ("--paired-bound", "paired_bound"),
                 ("--speedup-floor", "speedup_floor")),
}


def _default(value: Any, default: Any) -> Any:
    """``value``, or ``default`` when the flag was not given."""
    return default if value is None else value


def _command_bench(args: argparse.Namespace) -> int:
    from repro.perf.bench import (
        check_against_baseline,
        check_sampling_baseline,
        format_report,
        format_sampling_report,
        load_baseline,
        run_bench,
        run_sampling_bench,
        write_report,
    )
    from repro.workloads import PAPER_WORKLOADS, POINTER_WORKLOADS

    suite, other = (
        ("sampling", "core") if args.sampling else ("core", "sampling")
    )
    foreign = [
        option
        for option, dest in _BENCH_SUITE_OPTIONS[other]
        if getattr(args, dest) is not None
    ]
    if foreign:
        raise ConfigError(
            f"bench: {', '.join(foreign)} only applies to the {other} "
            f"suite, not the {suite} suite",
            field="bench",
        )
    if args.workloads is not None:
        workloads = [
            name.strip() for name in args.workloads.split(",") if name.strip()
        ]
        if not workloads:
            raise ConfigError("bench: no workloads selected",
                              field="bench.workloads")
    elif args.quick:
        workloads = list(POINTER_WORKLOADS)
    else:
        # Paper benchmarks only: the perf baselines were captured on the
        # six Table 1 stand-ins, and extension workloads must not widen
        # the gate's scope implicitly.
        workloads = list(PAPER_WORKLOADS)

    if args.sampling:
        # The suite's own defaults: the regression target is the paper
        # machine at acceptance scale, not the core suite's quick shape.
        machine = _default(args.machine, "psb")
        if machine == "base":
            raise ConfigError(
                "bench: --sampling cannot benchmark --machine base; its "
                "paired leg compares every machine against base",
                field="bench.machine",
            )
        report = run_sampling_bench(
            workloads,
            MACHINES[machine](),
            machine=machine,
            instructions=_default(args.instructions, 1_000_000),
            seed=args.seed,
            sample=(
                _parse_sample(args.sample) if args.sample is not None
                else (50_000, 1_000, 500)
            ),
            ipc_error_bound=_default(args.error_bound, 0.10),
            paired_error_bound=_default(args.paired_bound, 0.05),
            speedup_floor=_default(args.speedup_floor, 10.0),
            profile_dir=args.profile,
        )
        out = _default(args.out, "BENCH_sampling.json")
        check, describe = check_sampling_baseline, format_sampling_report
    else:
        machine = _default(args.machine, "base")
        report = run_bench(
            workloads,
            MACHINES[machine](),
            machine=machine,
            instructions=_default(
                args.instructions, 10_000 if args.quick else 50_000
            ),
            warmup=args.warmup,
            seed=args.seed,
            repeats=_default(args.repeats, 3),
            profile_dir=args.profile,
        )
        out = _default(args.out, "BENCH_core.json")
        check, describe = check_against_baseline, format_report
    write_report(report, out)
    print(describe(report))
    print(f"wrote {out}")
    if args.profile:
        print(f"cProfile dumps in {args.profile}/")

    if args.check is not None:
        baseline = load_baseline(args.check)
        failures = check(report, baseline, tolerance=args.tolerance)
        if failures:
            for failure in failures:
                print(f"bench regression: {failure}", file=sys.stderr)
            return 1
        print(f"no regressions vs {args.check} "
              f"(tolerance {args.tolerance * 100:.0f}%)")
    return 0


def _command_check(args: argparse.Namespace) -> int:
    from repro.integrity import golden_check, run_golden

    if args.warmup not in (None, 0):
        raise ConfigError(
            "check: golden-model validation requires --warmup 0 (a "
            "warm-up reset discards events the golden model counts)",
            field="check.warmup",
        )
    config = _config_of(args, args.machine)
    label = f"{args.workload}:{args.machine}"
    result = simulate(
        config,
        get_workload(args.workload, seed=args.seed),
        max_instructions=args.instructions,
        warmup_instructions=0,
        label=label,
    )
    golden = run_golden(
        config,
        get_workload(args.workload, seed=args.seed),
        max_instructions=args.instructions,
    )
    if args.tolerance is not None:
        report = golden_check(result, golden, miss_rate_tolerance=args.tolerance)
    else:
        report = golden_check(result, golden)
    print(report.summary())
    for violation in report.violations:
        print(f"  violated: {violation}", file=sys.stderr)
    return 0 if report.ok else 1


def _command_sweep(args: argparse.Namespace) -> int:
    from repro.runner import CampaignRunner, RunSpec, WorkloadSpec

    if args.golden and _warmup_of(args) != 0:
        raise ConfigError(
            "sweep: --golden requires --warmup 0 (a warm-up reset "
            "discards events the golden model counts)",
            field="sweep.golden",
        )
    if args.golden and args.sample is not None:
        raise ConfigError(
            "sweep: --golden and --sample are incompatible (the golden "
            "model counts every record; sampling only measures windows)",
            field="sweep.golden",
        )
    machines = _machines_of(args)
    chaos = None
    if args.chaos_seed is not None:
        from repro.runner import ChaosSpec

        chaos = ChaosSpec.scheduled(
            args.chaos_seed, points=len(machines), poison=args.chaos_poison
        )
    elif args.chaos_poison:
        raise ConfigError(
            "sweep: --chaos-poison requires --chaos-seed",
            field="sweep.chaos_poison",
        )

    specs = [
        RunSpec(
            run_id=f"{args.workload}/{name}",
            config=_apply_sample(
                args, _apply_sharing(args, _config_of(args, name))
            ),
            trace=WorkloadSpec(args.workload, seed=args.seed),
            max_instructions=args.instructions,
            warmup_instructions=_warmup_of(args),
            golden_check=args.golden,
        )
        for name in machines
    ]
    progress = None
    if args.progress:
        from repro.obs.progress import CampaignProgress

        progress = CampaignProgress(
            emit=lambda line: print(line, file=sys.stderr)
        )
    runner = CampaignRunner(
        args.campaign_dir,
        workers=args.workers,
        timeout=args.timeout,
        retries=args.retries,
        on_error=args.on_error,
        isolation="inline" if args.no_isolate else "process",
        resume=args.resume,
        snapshot_every=args.snapshot_every,
        progress=progress,
        chaos=chaos,
        max_worker_kills=args.max_worker_kills,
        handle_signals=True,
    )
    campaign = runner.run(specs)

    rows = []
    for spec in specs:
        outcome = campaign.outcomes.get(spec.run_id)
        if outcome is None:
            continue
        machine = spec.run_id.split("/", 1)[1]
        if outcome.ok:
            result = outcome.result
            rows.append(
                [
                    machine,
                    "ok" + (" (resumed)" if outcome.resumed else ""),
                    f"{result.ipc:.3f}",
                    f"{result.prefetch_accuracy * 100:.0f}%",
                    str(outcome.attempts),
                ]
            )
        else:
            label = (
                "POISONED" if outcome.status == "poisoned" else "FAILED"
            )
            rows.append(
                [
                    machine,
                    f"{label}: {outcome.error_kind}",
                    "-",
                    "-",
                    str(outcome.attempts),
                ]
            )
    print(
        ascii_table(
            ["machine", "status", "IPC", "accuracy", "attempts"],
            rows,
            title=f"campaign: '{args.workload}'",
        )
    )
    for outcome in campaign.failures.values():
        print(f"  {outcome.run_id}: {outcome.error_message}")
    skipped = {
        run_id: int(result.extra.get("trace_records_skipped", 0))
        for run_id, result in campaign.results.items()
        if result.extra.get("trace_records_skipped")
    }
    if skipped:
        total = sum(skipped.values())
        print(
            f"warning: {total} malformed trace record(s) skipped "
            f"({', '.join(f'{k}: {v}' for k, v in sorted(skipped.items()))})",
            file=sys.stderr,
        )
    if args.campaign_dir:
        print(f"campaign state in {args.campaign_dir}")
    if runner.stop_requested:
        # A handled SIGINT/SIGTERM stopped the campaign gracefully:
        # the manifest is resumable and the exit status says
        # "interrupted", matching the old Ctrl-C semantics.
        print(
            "repro-sim: sweep interrupted; resume with --resume",
            file=sys.stderr,
        )
        return 130
    return 0


def _command_audit(args: argparse.Namespace) -> int:
    from repro.runner import audit_campaign

    report = audit_campaign(args.campaign_dir)
    print(report.summary())
    if not report.ok:
        return 1
    if args.strict and report.warnings:
        return 1
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "workloads":
        return _command_workloads()
    if args.command == "run":
        return _command_run(args)
    if args.command == "compare":
        return _command_compare(args)
    if args.command == "trace":
        return _command_trace(args)
    if args.command == "bench":
        return _command_bench(args)
    if args.command == "report":
        return _command_report(args)
    if args.command == "check":
        return _command_check(args)
    if args.command == "sweep":
        return _command_sweep(args)
    if args.command == "audit":
        return _command_audit(args)
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as error:
        print(f"repro-sim: error: {error}", file=sys.stderr)
        return error.exit_code
    except KeyboardInterrupt:
        print("repro-sim: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
