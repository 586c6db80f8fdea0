"""``turb3d`` stand-in: isotropic turbulence in a periodic cube.

The real program is stride-dominated FORTRAN: sweeps over a 3-D grid of
doubles in each coordinate direction.  The x sweep is unit-stride (one
miss per four 8-byte elements with 32-byte lines), the y sweep strides by
a row, and the z sweep strides by a whole plane — large, but perfectly
constant, strides.  Stride-based stream buffers already capture all of
this, which is why the paper's PSB shows essentially the same speedup as
PC-stride on FORTRAN codes.
"""

from __future__ import annotations

from typing import Iterator

from repro.trace.record import InstrKind, TraceRecord
from repro.workloads.base import Emitter, PcAllocator, WorkloadGenerator

_ELEMENT = 8  # bytes per double


class Turb3dWorkload(WorkloadGenerator):
    """Directional sweeps over a 3-D grid, FP-heavy, stride-predictable."""

    name = "turb3d"
    description = (
        "Simulates isotropic, homogeneous turbulence in a cube: "
        "stride-dominated FORTRAN loops over a 3-D grid."
    )

    #: Grid extent along each axis, in elements.
    nx = 32
    ny = 32
    nz = 16
    grid_base = 0x2000_0000
    out_base = 0x3000_0000

    def _address(self, x: int, y: int, z: int) -> int:
        index = (z * self.ny + y) * self.nx + x
        return self.grid_base + index * _ELEMENT

    def _sweep(
        self, em: Emitter, pcs, count: int, start: int, stride: int, out: int
    ) -> Iterator[TraceRecord]:
        """One inner loop iteration: two loads and an FFT-butterfly's
        worth of floating-point work (real turb3d does ~10 flops per
        element loaded), a store, index arithmetic, and the back edge."""
        (
            pc_a,
            pc_b,
            pc_fm1,
            pc_fa1,
            pc_fm2,
            pc_fa2,
            pc_fm3,
            pc_fa3,
            pc_ix1,
            pc_ix2,
            pc_store,
            pc_branch,
        ) = pcs
        addr = start
        for i in range(count):
            a = em.index
            yield em.rec(InstrKind.LOAD, pc_a, addr)
            b = em.index
            yield em.rec(InstrKind.LOAD, pc_b, addr + stride)
            m1 = em.index
            yield em.rec(InstrKind.FMUL, pc_fm1, after=a, also_after=b)
            yield em.rec(InstrKind.FADD, pc_fa1, after=a)
            m2 = em.index
            yield em.rec(InstrKind.FMUL, pc_fm2, after=b)
            yield em.rec(InstrKind.FADD, pc_fa2, after=m1)
            yield em.rec(InstrKind.FMUL, pc_fm3, after=m2)
            s = em.index
            yield em.rec(InstrKind.FADD, pc_fa3, after=m2)
            yield em.rec(InstrKind.IALU, pc_ix1)
            yield em.rec(InstrKind.IALU, pc_ix2)
            yield em.rec(InstrKind.STORE, pc_store, out + i * _ELEMENT, after=s)
            yield em.rec(InstrKind.BRANCH, pc_branch, taken=i != count - 1)
            addr += stride

    def generate(self) -> Iterator[TraceRecord]:
        pcs = PcAllocator()
        x_pcs = pcs.sites(12)
        y_pcs = pcs.sites(12)
        z_pcs = pcs.sites(12)
        row = self.nx * _ELEMENT
        plane = self.nx * self.ny * _ELEMENT
        em = Emitter()
        while True:
            # x-direction: unit stride along each row.
            for z in range(0, self.nz, 2):
                for y in range(0, self.ny, 4):
                    start = self._address(0, y, z)
                    yield from self._sweep(
                        em, x_pcs, self.nx - 1, start, _ELEMENT, self.out_base
                    )
            # y-direction: stride of one row.
            for z in range(0, self.nz, 2):
                for x in range(0, self.nx, 4):
                    start = self._address(x, 0, z)
                    yield from self._sweep(
                        em, y_pcs, self.ny - 1, start, row, self.out_base
                    )
            # z-direction: stride of one plane (large but constant).
            for y in range(0, self.ny, 4):
                for x in range(0, self.nx, 4):
                    start = self._address(x, y, 0)
                    yield from self._sweep(
                        em, z_pcs, self.nz - 1, start, plane, self.out_base
                    )
