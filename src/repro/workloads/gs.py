"""``gs`` stand-in: Ghostscript converting PostScript to an image.

Ghostscript mixes two very different access patterns: rasterization
sweeps unit-stride across large scan-line buffers (stride-predictable),
while interpreting the display list chases graphics-state and path
objects on the heap (Markov-predictable, not stride).  The blend gives
both stream-buffer styles something to do, with a modest PSB edge from
the pointer part — matching the paper's mid-pack results for gs.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.trace.record import InstrKind, TraceRecord
from repro.workloads.base import Emitter, HeapModel, PcAllocator, WorkloadGenerator

_OBJECT_BYTES = 56


class GhostscriptWorkload(WorkloadGenerator):
    """Raster strides interleaved with display-list pointer chasing."""

    name = "gs"
    description = (
        "Ghostscript: PostScript interpretation (heap object chasing) "
        "plus rasterization (unit-stride scan-line processing)."
    )

    #: The scan-line buffers rasterization sweeps.
    raster_bytes = 96 * 1024
    #: Display lists the interpreter chases.
    num_display_lists = 8
    #: Graphics objects per display list.
    objects_per_list = 96
    raster_base = 0x5000_0000

    def _build_display_lists(self, heap: HeapModel, rng) -> List[List[int]]:
        lists: List[List[int]] = []
        for __ in range(self.num_display_lists):
            objects = [
                heap.alloc(_OBJECT_BYTES) for _ in range(self.objects_per_list)
            ]
            rng.shuffle(objects)
            lists.append(objects)
        return lists

    def generate(self) -> Iterator[TraceRecord]:
        rng = self._rng()
        heap = HeapModel()
        display_lists = self._build_display_lists(heap, rng)
        pcs = PcAllocator()
        pc_obj = pcs.site()  # display-list chase
        pc_attr = pcs.site()
        pc_interp = pcs.site()
        pc_objbr = pcs.site()
        pc_rast_in = pcs.site()  # raster read
        pc_rast_fp = pcs.sites(4)  # colour-space conversion arithmetic
        pc_rast_out = pcs.site()  # raster write
        pc_rastbr = pcs.site()
        pc_rast_ix = pcs.sites(2)  # scan-line index arithmetic
        em = Emitter()
        raster_cursor = 0
        list_cursor = 0
        while True:
            # Interpret one display list (pointer chase).
            objects = display_lists[list_cursor]
            list_cursor = (list_cursor + 1) % len(display_lists)
            previous = -1
            for position, obj in enumerate(objects):
                chase = em.index
                yield em.rec(InstrKind.LOAD, pc_obj, obj, after=previous)
                previous = chase
                yield em.rec(InstrKind.LOAD, pc_attr, obj + 16, after=chase)
                yield em.rec(InstrKind.IALU, pc_interp, after=chase)
                yield em.rec(
                    InstrKind.BRANCH,
                    pc_objbr,
                    taken=position != len(objects) - 1,
                    after=chase,
                )
            # Rasterize a scan-line band: a constant 32-byte stride over a
            # large buffer (one new cache block per step).
            band_words = 32
            for i in range(band_words):
                address = self.raster_base + (raster_cursor % self.raster_bytes)
                raster_cursor += 16
                load = em.index
                yield em.rec(InstrKind.LOAD, pc_rast_in, address)
                m = em.index
                yield em.rec(InstrKind.FMUL, pc_rast_fp[0], after=load)
                yield em.rec(InstrKind.FADD, pc_rast_fp[1], after=load)
                yield em.rec(InstrKind.FMUL, pc_rast_fp[2], after=m)
                yield em.rec(InstrKind.FADD, pc_rast_fp[3], after=m)
                yield em.rec(InstrKind.IALU, pc_rast_ix[0])
                yield em.rec(InstrKind.IALU, pc_rast_ix[1])
                yield em.rec(InstrKind.STORE, pc_rast_out, address, after=m)
                yield em.rec(InstrKind.BRANCH, pc_rastbr, taken=i != band_words - 1)
