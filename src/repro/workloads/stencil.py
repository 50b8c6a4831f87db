"""A 2-D stencil (halo-exchange) workload.

The canonical CFD/heat-equation communication pattern: ranks form a 2-D
process grid, each iteration computes over the local tile and exchanges
one-cell-deep halos with the four neighbours.  Unlike the NPB skeletons
this workload is *configurable* (grid size, iteration count), making it
the go-to for exploring how Ninja overhead interacts with an
application's own communication/computation ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.vmm.guest_memory import PageClass
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.communicator import CommView
    from repro.mpi.runtime import MpiProcess

TAG_HALO = -30
#: Halo depth in cells.
HALO_WIDTH = 1
#: Bytes per grid point (one double).
BYTES_PER_POINT = 8
#: Flops per point per iteration (5-point stencil ≈ 5 flops + update).
FLOPS_PER_POINT = 8.0
#: Sustained per-core flop rate of the simulated Xeon E5540.
CORE_FLOPS = 2.0e9


def process_grid(size: int) -> tuple[int, int]:
    """The most-square (rows, cols) factorization of ``size``."""
    rows = int(math.sqrt(size))
    while size % rows != 0:
        rows -= 1
    return rows, size // rows


@dataclass
class StencilConfig:
    """Shape of one stencil run."""

    #: Global grid points per dimension (double precision).
    global_points: int = 16_384
    iterations: int = 50

    def tile_points(self, nranks: int) -> int:
        """Points per rank tile (square decomposition)."""
        return self.global_points * self.global_points // nranks

    def halo_bytes(self, nranks: int) -> int:
        """Bytes of one face halo message."""
        rows, cols = process_grid(nranks)
        tile_edge = self.global_points // max(rows, cols)
        return max(tile_edge * HALO_WIDTH * BYTES_PER_POINT, 1)

    def compute_seconds(self, nranks: int) -> float:
        return self.tile_points(nranks) * FLOPS_PER_POINT / CORE_FLOPS


class StencilWorkload(Workload):
    """SPMD 2-D halo exchange."""

    name = "stencil2d"

    def __init__(self, config: Optional[StencilConfig] = None) -> None:
        self.config = config if config is not None else StencilConfig()
        #: rank 0's wall time, filled at completion.
        self.elapsed_s: float = 0.0
        #: Completed iterations per rank (diagnostics).
        self.completed: dict[int, int] = {}

    def _neighbours(self, rank: int, size: int) -> list[int]:
        """N/S/E/W neighbours on a non-periodic process grid."""
        rows, cols = process_grid(size)
        r, c = divmod(rank, cols)
        result = []
        if r > 0:
            result.append(rank - cols)
        if r < rows - 1:
            result.append(rank + cols)
        if c > 0:
            result.append(rank - 1)
        if c < cols - 1:
            result.append(rank + 1)
        return result

    def rank_main(self, proc: "MpiProcess", comm: "CommView"):
        config = self.config
        size = comm.size
        tile_bytes = config.tile_points(size) * BYTES_PER_POINT
        self.populate(proc, tile_bytes, PageClass.DATA)
        halo = config.halo_bytes(size)
        compute_s = config.compute_seconds(size)
        neighbours = self._neighbours(comm.rank, size)
        yield from comm.barrier()
        t0 = proc.env.now
        done = 0
        for _ in range(config.iterations):
            yield proc.vm.compute(compute_s, nthreads=1)
            # Post all halo sends, then drain the matching receives —
            # the classic nonblocking exchange (deadlock-free for any
            # neighbour order).
            pending = [
                comm.isend(n, halo, tag=TAG_HALO) for n in neighbours
            ]
            for _n in neighbours:
                yield from comm.recv(tag=TAG_HALO)
            for event in pending:
                yield event
            done += 1
        yield from comm.barrier()
        self.completed[comm.rank] = done
        if comm.rank == 0:
            self.elapsed_s = proc.env.now - t0
        return done
