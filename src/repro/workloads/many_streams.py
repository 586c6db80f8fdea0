"""``many_streams``: the buffer-sharing adversary (beyond the paper).

A synthetic workload built to thrash the paper's fixed 8 x 4 entry
partition (``sis`` already hints at the failure mode; this generator
isolates it).  The access pattern skews lookahead demand as hard as it
can:

- two **hot** streams consume long sequential bursts, perfectly
  predictable.  Covering a burst requires the stream buffer to run far
  ahead during the stream's long off-phase, so useful lookahead depth
  is the burst length — far beyond the 4 entries a fixed partition
  grants;
- fourteen **cold** streams touch a few scattered, never-repeating
  blocks per visit: pointer-chase noise the predictor can do nothing
  with.  Their misses keep allocation requests and priority aging
  churning, but the streams deserve *zero* lookahead — and under a
  fixed partition every buffer they (or nobody) occupy still pins 4
  entries the hot streams cannot borrow.

Under fixed partitioning the hot streams cap out at 4 entries of
lookahead.  A shared pool (:mod:`repro.streambuf.sharing`) lets them run
10+ entries deep — mostly on free pool credit, since the noise streams
generate no predictions to compete with — which is exactly the skew the
harmonic and credence sharing policies exist to exploit.  The
comparison table lives in ``docs/buffer_sharing.md``.
"""

from __future__ import annotations

from typing import Iterator

from repro.trace.record import InstrKind, TraceRecord
from repro.workloads.base import Emitter, PcAllocator, WorkloadGenerator

#: Each stream walks its own widely separated region, so streams never
#: overlap and every address is cold (no wrap: misses go to memory).
_STREAM_BASE = 0x4000_0000
_STREAM_SPACING = 0x0100_0000  # 16 MiB per stream
#: Per-stream scratch area for result stores, away from the load streams.
_SCRATCH_BASE = 0x7000_0000


class ManyStreamsWorkload(WorkloadGenerator):
    """Skewed-demand stride streams: the fixed-partition adversary."""

    name = "many_streams"
    description = (
        "Adversary for fixed 8x4 entry partitioning: many predictable "
        "streams with heavily skewed lookahead demand (2 hot, 14 cold)."
    )

    #: Streams of long dependent bursts, and streams of scattered noise.
    hot_streams = 2
    cold_streams = 14
    #: Loads per hot stream per round.
    hot_burst = 12
    #: Scattered loads per cold-stream visit.
    cold_burst = 3
    #: Cold-stream visits per round.
    cold_per_round = 14
    #: Bytes between consecutive loads of a hot stream.
    stride = 32

    def generate(self) -> Iterator[TraceRecord]:
        rng = self._rng()
        pcs = PcAllocator()
        hot_pcs = pcs.sites(self.hot_streams)
        cold_pcs = pcs.sites(self.cold_streams)
        pc_hot_alu = pcs.site()
        pc_hot_br = pcs.site()
        pc_hot_store = pcs.site()
        pc_cold_alu = pcs.site()
        pc_cold_alu2 = pcs.site()
        pc_cold_br = pcs.site()
        pc_cold_store = pcs.site()
        em = Emitter()
        hot_cursors = [0] * self.hot_streams
        cold_next = 0
        scratch = 0
        while True:
            # Hot phase: each hot stream walks a long *dependent* burst —
            # a linked traversal over a regularly laid-out heap, the
            # paper's core scenario.  Each load's address comes from the
            # previous one, so the window cannot overlap the misses:
            # every block whose prefetch is not already READY exposes
            # its full latency, which is what makes lookahead depth
            # (not just prefetch bandwidth) the scarce resource.
            for hot in range(self.hot_streams):
                base = _STREAM_BASE + hot * _STREAM_SPACING
                prev = -1
                for i in range(self.hot_burst):
                    load = em.index
                    yield em.rec(
                        InstrKind.LOAD, hot_pcs[hot],
                        base + hot_cursors[hot], after=prev,
                    )
                    prev = load
                    hot_cursors[hot] += self.stride
                    yield em.rec(InstrKind.IALU, pc_hot_alu, after=load)
                    if i % 4 == 3:
                        yield em.rec(
                            InstrKind.BRANCH, pc_hot_br,
                            taken=i != self.hot_burst - 1,
                        )
                yield em.rec(
                    InstrKind.STORE, pc_hot_store,
                    _SCRATCH_BASE + (scratch % 4096),
                )
                scratch += 8
            # Cold phase: a rotating window of cold streams each touch a
            # few *scattered* blocks of their region — pointer-chase
            # noise with no stride and no repeats, so the predictor can
            # give their buffers nothing useful to do.  Their demand
            # misses keep the machine (and priority aging) busy while
            # the hot streams are off, which is precisely the window a
            # shared pool uses to run the hot lookahead deep; a fixed
            # partition spends the same window holding 4 idle entries
            # per buffer that nobody can use.
            for _ in range(self.cold_per_round):
                cold = cold_next % self.cold_streams
                cold_next += 1 + rng.randrange(2)
                base = _STREAM_BASE + (self.hot_streams + cold) * _STREAM_SPACING
                for _block in range(self.cold_burst):
                    load = em.index
                    yield em.rec(
                        InstrKind.LOAD, cold_pcs[cold],
                        base + rng.randrange(_STREAM_SPACING // 64) * 64,
                    )
                    yield em.rec(InstrKind.IALU, pc_cold_alu, after=load)
                    yield em.rec(InstrKind.IALU, pc_cold_alu2)
                yield em.rec(
                    InstrKind.BRANCH, pc_cold_br, taken=rng.random() < 0.8
                )
                yield em.rec(
                    InstrKind.STORE, pc_cold_store,
                    _SCRATCH_BASE + 8192 + (scratch % 4096),
                )
                scratch += 8
