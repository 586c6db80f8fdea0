"""Regenerate ``expected.json``: the pins the benchmark checks runs against.

    python benchmarks/e2e/pin.py

For every workload and each seed in :data:`SEEDS` it records the sha256
digest of the ``SimulationResult``; for every sampled workload it also
records the IPC of the same trace and machine simulated in full detail
(no warm-up), the reference ``ipc_err_pct`` is scored against.  Seed 1
is the seed of ``benchmarks/BENCH_sampling.json``; seed 2 is held out.
The file is rewritten whole, always for both seeds.  Re-pin only in a
change that means to alter simulation results, and say so.
"""

from __future__ import annotations

import json
import os
import tempfile

from child import run_once
from run import PINS, WORK
from workloads import WORKLOADS, use_checkout_sources

#: The pinned seeds: the tuned seed and the held-out one.
SEEDS = (1, 2)


def reference_ipc(spec, seed: int) -> float:
    """IPC of ``spec``'s trace and machine run in full detail."""
    from repro.sim.simulator import Simulator
    from repro.workloads.cache import cached_workload_trace

    records = cached_workload_trace(spec.trace, seed=seed, instructions=spec.records)
    simulator = Simulator(spec.config(sampled=False))
    return simulator.run(
        records, max_instructions=spec.records, warmup_instructions=0
    ).ipc


def main() -> None:
    use_checkout_sources()
    WORK.mkdir(parents=True, exist_ok=True)
    pins = {"digests": {}, "reference_ipc": {}}
    with tempfile.TemporaryDirectory(dir=WORK) as cache:
        os.environ["REPRO_TRACE_CACHE"] = cache
        for name, spec in WORKLOADS.items():
            for seed in SEEDS:
                digest = run_once(name, spec, seed, traced=False)["digest"]
                pins["digests"].setdefault(name, {})[str(seed)] = digest
                if spec.sample:
                    pins["reference_ipc"].setdefault(name, {})[str(seed)] = (
                        reference_ipc(spec, seed)
                    )
                print(f"pinned {name} seed {seed}", flush=True)
    with open(PINS, "w") as handle:
        json.dump(pins, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
