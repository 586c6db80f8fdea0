"""Simulator performance instrumentation and benchmarking.

Two halves:

- :mod:`repro.perf.collector` — lightweight wall-clock timers and event
  counters threaded through the simulator (cycles skipped by the
  event-driven fast path, time per phase).
- :mod:`repro.perf.bench` — the pinned micro-suite behind
  ``repro-sim bench``: per-workload wall time, simulated cycles per
  second, records per second, the event-driven vs cycle-stepped
  speedup, and regression checking against a checked-in baseline
  (``benchmarks/BENCH_core.json``).
"""

from repro.perf.collector import PerfCollector
from repro.perf.bench import (
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

__all__ = [
    "PerfCollector",
    "BenchmarkError",
    "check_against_baseline",
    "check_sampling_baseline",
    "format_report",
    "format_sampling_report",
    "load_baseline",
    "run_bench",
    "run_sampling_bench",
    "write_report",
]
