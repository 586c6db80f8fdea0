"""One benchmark child: cold set-up, then measured runs until a deadline.

Usage (the harness in ``run.py`` starts this with a private, empty
``REPRO_TRACE_CACHE``)::

    python benchmarks/e2e/child.py WORKLOAD SEED TRACED DEADLINE

The child sets the workload up once from cold (trace generation,
compile and load, ``Simulator(config)``), then simulates it with a
fresh ``Simulator`` each time until ``DEADLINE`` (a Unix time) would
pass, at least once; ``DEADLINE`` 0 means exactly one run.  With
``TRACED=0`` every run is untraced; with ``TRACED=1`` a timed child
alternates untraced and traced runs (at least one of each), and a
one-run child traces its run.  The reference loop of ``calibrate.py``
is timed before set-up and after set-up and every run, so each step is
bracketed by two loop timings.  Untraced runs execute the simulator
exactly as a user would, with nothing wrapped.

Prints one JSON object on stdout: the set-up times, the peak RSS after
the first run, and per run its wall time, loop time, IPC and the sha256
digest of its ``SimulationResult`` (traced runs add spans and counts).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import statistics
import sys
import time

import calibrate
from spans import LayerProbe, SpanTimer
from workloads import WORKLOADS, Workload, use_checkout_sources


def result_digest(result) -> str:
    """sha256 over the result's fields as sorted JSON."""
    payload = json.dumps(dataclasses.asdict(result), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def simulate(name: str, spec: Workload, records, simulator, traced: bool) -> dict:
    """Run the built ``simulator`` over ``records`` once; its run report."""
    probe = LayerProbe(simulator, SpanTimer()) if traced else None
    try:
        began = time.perf_counter()
        result = simulator.run(
            records,
            max_instructions=spec.records,
            warmup_instructions=spec.warmup,
            label=name,
        )
        run_s = time.perf_counter() - began
    finally:
        if probe is not None:
            probe.close()
    run = {
        "traced": traced,
        "run_s": run_s,
        "digest": result_digest(result),
        "ipc": result.ipc,
    }
    if probe is not None:
        run["spans"] = probe.spans(spec.records)
        run["counts"] = probe.counts(result)
    return run


def measure(name: str, spec: Workload, seed: int, traced: bool,
            deadline: float = 0.0) -> dict:
    """Set ``spec`` up once in this process, then run it until ``deadline``."""
    from repro.sim.simulator import Simulator
    from repro.workloads.cache import cached_workload_trace

    calibrate.reference_loop(1_000)
    loop_before = calibrate.measure()
    start = time.perf_counter()
    records = cached_workload_trace(spec.trace, seed=seed, instructions=spec.records)
    loaded = time.perf_counter()
    simulator = Simulator(spec.config())
    built = time.perf_counter()
    loop_after = calibrate.measure()
    setup = {
        "trace_load_s": loaded - start,
        "sim_build_s": built - loaded,
        "loop_s": (loop_before + loop_after) / 2,
    }
    minimum = 2 if traced and deadline else 1
    runs, durations = [], []
    while True:
        began = time.time()
        if simulator is None:
            simulator = Simulator(spec.config())
        run_traced = traced and (not deadline or len(runs) % 2 == 1)
        run = simulate(name, spec, records, simulator, run_traced)
        simulator = None
        if not runs:
            setup["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            )
        loop_before, loop_after = loop_after, calibrate.measure()
        run["loop_s"] = (loop_before + loop_after) / 2
        runs.append(run)
        durations.append(time.time() - began)
        if len(runs) >= minimum and (
            not deadline or time.time() + statistics.median(durations) > deadline
        ):
            break
    return {
        "workload": name,
        "seed": seed,
        "records": spec.records,
        "setup": setup,
        "runs": runs,
    }


def flatten(report: dict) -> list:
    """One dict per run, carrying the workload, seed and record count;
    the first run also carries the child's ``setup``."""
    common = {key: report[key] for key in ("workload", "seed", "records")}
    runs = [dict(common, **run, ok=True) for run in report["runs"]]
    runs[0]["setup"] = report["setup"]
    return runs


def run_once(name: str, spec: Workload, seed: int, traced: bool) -> dict:
    """Set up and run ``spec`` once in this process; the run's dict."""
    return flatten(measure(name, spec, seed, traced))[0]


def main(argv) -> int:
    name, seed, traced, deadline = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    use_checkout_sources()
    print(json.dumps(measure(name, WORKLOADS[name], seed, traced, deadline)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
