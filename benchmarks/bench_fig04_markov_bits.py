"""Figure 4: bits needed by the differential Markov predictor.

The paper plots, per benchmark, the fraction of L1 cache misses whose
consecutive-miss delta is representable in N signed bits; 16 bits
captures almost all transitions, justifying the 4 KB (2K x 16-bit)
table.  This bench replays each workload's miss stream functionally and
prints the same curves.  The paper's claim is asserted over the six
paper programs (``PAPER_WORKLOADS``); extension workloads print as rows
beyond the paper.
"""

import itertools

from repro.analysis.markov_bits import markov_delta_bits
from repro.analysis.report import ascii_table
from repro.workloads import PAPER_WORKLOADS, get_workload, workload_names

_INSTRUCTIONS = 80_000
_BIT_POINTS = (8, 10, 12, 14, 16, 20, 24, 32)


def test_fig04_markov_delta_bits(benchmark):
    def experiment():
        curves = {}
        for name in workload_names():
            trace = itertools.islice(get_workload(name), _INSTRUCTIONS)
            analysis = markov_delta_bits(trace, max_instructions=_INSTRUCTIONS)
            curves[name] = [analysis.coverage_at(bits) for bits in _BIT_POINTS]
        return curves

    curves = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = [
        [name] + [f"{value * 100:.0f}%" for value in values]
        for name, values in curves.items()
    ]
    print()
    print(
        ascii_table(
            ["program"] + [f"{bits}b" for bits in _BIT_POINTS],
            rows,
            title=(
                "Figure 4 (reproduced): % of per-load miss transitions "
                "representable in N signed bits"
            ),
        )
    )
    print(
        "Paper expectation: 16 bits captures almost all transitions "
        "(asserted on the paper's six programs; further rows are "
        "extension workloads)."
    )
    sixteen = _BIT_POINTS.index(16)
    for name, values in curves.items():
        assert values == sorted(values)  # monotone in bit width
    for name in PAPER_WORKLOADS:
        assert curves[name][sixteen] > 0.7, f"{name}: 16-bit coverage too low"
    # Pointer benchmarks must need MORE than trivially few bits.
    eight = _BIT_POINTS.index(8)
    assert curves["health"][eight] < curves["health"][sixteen]
