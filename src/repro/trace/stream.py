"""Trace profiling: the instruction mix of a record stream.

Workload generators yield records lazily; :func:`profile` counts a
finite trace's records per kind without holding it in memory.
"""

from __future__ import annotations

from typing import Iterable

from repro.trace.record import InstrKind, TraceRecord


def profile(source: Iterable[TraceRecord]) -> dict:
    """Summarize a trace: counts per kind and load/store fractions.

    Used to validate that synthetic workloads hit the instruction-mix
    targets of Table 2.
    """
    counts = {kind: 0 for kind in InstrKind}
    total = 0
    for record in source:
        counts[record.kind] += 1
        total += 1
    loads = counts[InstrKind.LOAD]
    stores = counts[InstrKind.STORE]
    return {
        "total": total,
        "counts": counts,
        "load_fraction": loads / total if total else 0.0,
        "store_fraction": stores / total if total else 0.0,
        "branch_fraction": counts[InstrKind.BRANCH] / total if total else 0.0,
    }
