"""Figure 10: speedup across L1 data-cache geometries.

The paper shows the prefetching speedups for a 16K 4-way, 32K 2-way and
32K 4-way L1: "the speedup obtained is independent of cache size over a
reasonable set of configurations", because the benefit comes from hiding
L1 *capacity* misses that persist at all three sizes.
"""

from _shared import run, run_custom

from repro.analysis.report import ascii_table
from repro.sim.presets import (
    FIGURE10_CACHES,
    baseline_config,
    psb_config,
    stride_config,
)
from repro.workloads import workload_names

_CONFIG_MAKERS = {
    "Base": baseline_config,
    "Stride": stride_config,
    "ConfAlloc-Priority": psb_config,
}


def test_fig10_cache_size_sweep(benchmark):
    def experiment():
        speedups = {}
        for name in workload_names():
            speedups[name] = {}
            for size, ways, geometry in FIGURE10_CACHES:
                results = {}
                default_geometry = (size, ways) == (32 * 1024, 4)
                for label, maker in _CONFIG_MAKERS.items():
                    if default_geometry:
                        # The 32K 4-way geometry is the main evaluation
                        # machine: reuse those cached runs.
                        results[label] = run(name, label)
                        continue
                    config = maker().with_l1(size, ways)
                    results[label] = run_custom(
                        name, f"{label}@{geometry}", config
                    )
                base = results["Base"]
                speedups[name][geometry] = {
                    label: results[label].speedup_over(base)
                    for label in ("Stride", "ConfAlloc-Priority")
                }
        return speedups

    speedups = benchmark.pedantic(experiment, rounds=1, iterations=1)
    geometries = [geometry for __, __, geometry in FIGURE10_CACHES]
    rows = []
    for name in workload_names():
        for label in ("Stride", "ConfAlloc-Priority"):
            rows.append(
                [name, label]
                + [f"{speedups[name][g][label]:+.1f}%" for g in geometries]
            )
    print()
    print(
        ascii_table(
            ["program", "prefetcher"] + geometries,
            rows,
            title="Figure 10 (reproduced): % speedup vs L1 geometry",
        )
    )
    print(
        "Paper expectation: the speedups are roughly independent of the "
        "cache configuration."
    )
    # The PSB speedup must not evaporate at any geometry for the programs
    # it helps at the default geometry.
    for name in ("health", "deltablue"):
        gains = [
            speedups[name][g]["ConfAlloc-Priority"] for g in geometries
        ]
        assert min(gains) > 10.0, (name, gains)
