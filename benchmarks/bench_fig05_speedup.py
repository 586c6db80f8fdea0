"""Figure 5: percent speedup over the no-prefetch baseline.

The paper compares PC-stride stream buffers ("Stride") against four PSB
variants crossing the allocation filter (two-miss vs confidence) with
the scheduler (round-robin vs priority), on all six benchmarks.

Expected shape (Section 6): PSB beats Stride substantially on the
pointer programs; on the FORTRAN program the two are comparable;
confidence allocation is what rescues burg and sis.
"""

from _shared import CONFIG_LABELS, speedup

from repro.analysis.report import ascii_table
from repro.workloads import POINTER_WORKLOADS, workload_names

_PREFETCHERS = [label for label in CONFIG_LABELS if label != "Base"]


def test_fig05_speedup_over_base(benchmark):
    def experiment():
        return {
            name: {label: speedup(name, label) for label in _PREFETCHERS}
            for name in workload_names()
        }

    speedups = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = [
        [name] + [f"{speedups[name][label]:+.1f}%" for label in _PREFETCHERS]
        for name in workload_names()
    ]
    averages = {
        label: sum(speedups[name][label] for name in POINTER_WORKLOADS)
        / len(POINTER_WORKLOADS)
        for label in _PREFETCHERS
    }
    rows.append(
        ["pointer-avg"] + [f"{averages[label]:+.1f}%" for label in _PREFETCHERS]
    )
    print()
    print(
        ascii_table(
            ["program"] + list(_PREFETCHERS),
            rows,
            title="Figure 5 (reproduced): % speedup over baseline IPC",
        )
    )
    print(
        "Paper expectation: PSB >> Stride on pointer programs; "
        "PSB ~ Stride on turb3d; confidence rescues sis."
    )

    # PSB (best variant) beats Stride on every pointer program.
    for name in POINTER_WORKLOADS:
        best_psb = max(
            speedups[name][label]
            for label in _PREFETCHERS
            if label != "Stride"
        )
        assert best_psb >= speedups[name]["Stride"] - 1.0, name

    # On the FORTRAN program PSB and Stride are comparable.
    turb = speedups["turb3d"]
    assert abs(turb["2Miss-RR"] - turb["Stride"]) < 15.0

    # The headline: PSB's pointer-program average clearly beats both the
    # baseline and the stride average.
    assert averages["ConfAlloc-Priority"] > 10.0
    assert averages["ConfAlloc-Priority"] > averages["Stride"]

    # sis: two-miss allocation thrashes; confidence repairs it.
    assert speedups["sis"]["ConfAlloc-Priority"] > speedups["sis"]["2Miss-RR"]
