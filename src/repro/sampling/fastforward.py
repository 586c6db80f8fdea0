"""Functional fast-forward: warm the detailed machine at replay speed.

Between measured windows the sampling driver replays the trace through
this engine instead of the detailed core.  The engine mutates the
*detailed machine's own* state — the L1/L2 tag arrays and the gshare
counters and history — record by record, and collects the stretch's
demand L1 load misses as ``(pc, addr)`` pairs.  At the end of the
stretch it hands them to the prefetcher in one
:meth:`PrefetcherPort.warm <repro.memory.hierarchy.PrefetcherPort.warm>`
call, which trains the predictor tables and, when
:attr:`~repro.config.SamplingConfig.warm_confidence` is set, detunes
the confidence and priority counters.  Deferring the prefetcher to the
end of the stretch is exact: no prefetcher's warming reads cache tags,
and fast-forward never ticks.  So when the next window opens the timing
simulation starts from functionally warm state, exactly the way the
golden model (:mod:`repro.integrity.golden`) replays tags for its
differential check.

What is deliberately **not** modelled: cycles, MSHRs, buses, fills, and
prefetch issue.  Fast-forward is zero-cycle functional warming; only the
detailed windows accumulate timing.  Statistics counters are also left
alone (they are reset at each window's warm-up boundary anyway) — the
hot loop below touches the cache ``OrderedDict`` sets and the gshare
table directly rather than going through ``access``/``insert``/
``update``, because at 10-50x target speedups every per-record
attribute lookup and stats increment matters.  The test suite pins the
result to those methods: replaying the same records through them, in
the order the detailed hierarchy applies them, must leave identical
sets and branch state.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Iterator, Optional

from repro.trace.record import InstrKind, TraceRecord


class FastForwardEngine:
    """Replays trace records into one simulator's functional state.

    The engine mirrors the demand path of
    :meth:`repro.memory.hierarchy.MemoryHierarchy.access` functionally:
    L1 hit refreshes LRU (stores set the dirty bit); an L1 miss does the
    L2 lookup/fill, fills the L1 with write-back of a dirty victim into
    the L2, and — for loads only, matching ``_finish_miss`` (stores never
    train the predictor) — joins the stretch's misses for the
    prefetcher's warming call.

    ``totals`` is the dict the engine adds its cumulative replay counts
    to (``instructions`` and ``l1_misses``; whole run, never reset).  The
    sampling driver passes its own state's dict, so snapshots and the
    stitched result read the counts in place; by default the engine
    keeps a fresh one.
    """

    def __init__(self, simulator, totals: Optional[dict] = None) -> None:
        self._l1 = simulator.hierarchy.l1
        self._l2 = simulator.hierarchy.l2
        self._prefetcher = simulator.hierarchy.prefetcher
        self._bp = simulator.core.branch_predictor
        sampling = simulator.config.sampling
        self._detuned = sampling is not None and sampling.warm_confidence
        self.totals = (
            totals if totals is not None
            else {"instructions": 0, "l1_misses": 0}
        )

    def replay(
        self,
        source: Iterator[TraceRecord],
        count: int,
        pending: Optional[TraceRecord] = None,
    ) -> int:
        """Replay ``pending`` plus up to ``count`` records from ``source``.

        ``pending`` is a record the detailed window already consumed but
        never dispatched (``_RunState.pending_record``); it is replayed
        first and does not count against ``count``.  The stretch ends
        with one :meth:`PrefetcherPort.warm` call over its load misses.
        Returns how many records were pulled from ``source`` — fewer
        than ``count`` only when the trace ran dry.
        """
        records = islice(source, count)
        if pending is not None:
            records = chain((pending,), records)
        l1 = self._l1
        l2 = self._l2
        l1_sets = l1._sets
        l1_align = ~(l1.block_size - 1)
        l1_shift = l1.block_size.bit_length() - 1
        l1_nsets = l1.num_sets
        l1_ways = l1.associativity
        l2_sets = l2._sets
        l2_align = ~(l2.block_size - 1)
        l2_shift = l2.block_size.bit_length() - 1
        l2_nsets = l2.num_sets
        l2_ways = l2.associativity
        bp = self._bp
        counters = bp._counters
        hist_mask = bp._mask
        history = bp._history
        LOAD = InstrKind.LOAD
        STORE = InstrKind.STORE
        BRANCH = InstrKind.BRANCH
        misses = []
        add_miss = misses.append
        instructions = l1_misses = 0
        # The block the last memory access left most recently used, and
        # its set: a repeat access to it is an L1 hit whose LRU refresh
        # is a no-op, so only a store's dirty bit is left to set.
        mru_block = -1
        mru_set = None
        for record in records:
            instructions += 1
            kind = record.kind
            if kind is LOAD or kind is STORE:
                is_store = kind is STORE
                addr = record.addr
                block = addr & l1_align
                if block == mru_block:
                    if is_store:
                        mru_set[block] = True
                    continue
                l1_set = l1_sets[(block >> l1_shift) % l1_nsets]
                mru_block = block
                mru_set = l1_set
                if block in l1_set:
                    l1_set.move_to_end(block)
                    if is_store:
                        l1_set[block] = True
                    continue
                l1_misses += 1
                # L2 demand lookup + fill (mirrors _fetch_from_l2;
                # an L2 victim write-back to memory is timing-only).
                l2_block = addr & l2_align
                l2_set = l2_sets[(l2_block >> l2_shift) % l2_nsets]
                if l2_block in l2_set:
                    l2_set.move_to_end(l2_block)
                else:
                    if len(l2_set) >= l2_ways:
                        l2_set.popitem(last=False)
                    l2_set[l2_block] = False
                # L1 fill; a dirty victim writes back into the L2
                # (mirrors _write_back_l1_victim: mark dirty if
                # resident, else fill dirty).
                if len(l1_set) >= l1_ways:
                    victim_block, victim_dirty = l1_set.popitem(last=False)
                    if victim_dirty:
                        vb = victim_block & l2_align
                        vset = l2_sets[(vb >> l2_shift) % l2_nsets]
                        if vb in vset:
                            vset[vb] = True
                        else:
                            if len(vset) >= l2_ways:
                                vset.popitem(last=False)
                            vset[vb] = True
                l1_set[block] = is_store
                if not is_store:
                    # Only loads train the predictor (_finish_miss).
                    add_miss((record.pc, addr))
            elif kind is BRANCH:
                # gshare train, inlined without the (window-reset)
                # prediction counters: only the counter table and the
                # history register carry warmth across windows.
                index = ((record.pc >> 2) ^ history) & hist_mask
                if record.taken:
                    if counters[index] < 3:
                        counters[index] += 1
                    history = ((history << 1) | 1) & hist_mask
                else:
                    if counters[index] > 0:
                        counters[index] -= 1
                    history = (history << 1) & hist_mask
        bp._history = history
        totals = self.totals
        totals["instructions"] += instructions
        totals["l1_misses"] += l1_misses
        self._prefetcher.warm(misses, self._detuned)
        if pending is not None:
            instructions -= 1
        return instructions
