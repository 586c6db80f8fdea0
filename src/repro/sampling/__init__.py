"""SMARTS-style systematic sampling over the detailed simulator.

The detailed core costs microseconds of CPython per instruction; the
structural fix (ROADMAP: "Raw speed") is to stop simulating every
instruction in detail.  This package extends the functional golden
model's idea (:mod:`repro.integrity.golden`) into a **fast-forward
engine** (:mod:`repro.sampling.fastforward`) that warms the *detailed
machine's own* L1/L2 tag state, gshare predictor, and prefetcher tables
at trace-replay speed, and a **sampling driver**
(:mod:`repro.sampling.driver`) that places detailed measured windows
between fast-forward gaps and adds the sampling metadata (a confidence
interval over per-window IPC, per-window rows) to the stitched result.

There is no separate entry point: enable sampling with
:meth:`repro.config.SimConfig.with_sampling` or ``repro-sim run/sweep
--sample PERIOD:WINDOW:WARMUP`` and :meth:`Simulator.run
<repro.sim.simulator.Simulator.run>` runs the windows through the
detailed run's own loop, while
:func:`repro.integrity.snapshot.resume_run` resumes either kind of
snapshot.  With ``SimConfig.sampling`` left ``None`` no sampling code
runs.

For machine *comparisons* use the matched-pair driver
(:mod:`repro.sampling.paired`, ``repro-sim compare --sample`` or
``sweep --sample-paired``): sampling every machine over the same window
grid cancels the fast-forward cold-start bias in relative-IPC and
speedup estimates — the quantities the paper's figures actually report.
"""

from repro.sampling.fastforward import FastForwardEngine
from repro.sampling.paired import (
    PairedResult,
    PairStats,
    paired_from_results,
    run_paired,
)

__all__ = [
    "FastForwardEngine",
    "PairStats",
    "PairedResult",
    "paired_from_results",
    "run_paired",
]
