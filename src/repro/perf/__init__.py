"""Simulator performance instrumentation and benchmarking.

Two halves:

- :mod:`repro.perf.collector` — lightweight wall-clock timers and event
  counters threaded through the simulator (cycles skipped by the
  event-driven fast path, time per phase).  It is the only name this
  package exports, because the simulator imports it.
- :mod:`repro.perf.bench` — the pinned micro-suite behind
  ``repro-sim bench``: per-workload wall time, simulated cycles per
  second, records per second, the event-driven vs cycle-stepped
  speedup, and regression checking against a checked-in baseline
  (``benchmarks/BENCH_core.json``).  It imports the simulator, so it
  is imported by name (``from repro.perf.bench import run_bench``) and
  a process that only simulates never loads it.
"""

from repro.perf.collector import PerfCollector

__all__ = ["PerfCollector"]
