"""The memtest micro benchmark (Sections IV-B1 and IV-B2).

"A memtest benchmark sequentially writes data to a 2 GB memory array.
We used 8 VMs, and an MPI process ran on each VM."  The written pattern
is uniform, so the array compresses during migration — the property that
makes Figure 6's migration times nearly independent of the array size.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.guestos.process import MemoryWriter
from repro.units import GiB
from repro.vmm.guest_memory import PageClass
from repro.workloads.base import Workload, claim_region

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.communicator import CommView
    from repro.mpi.runtime import MpiProcess


class MemtestWorkload(Workload):
    """Sequential memory writer, one MPI process per VM.

    Parameters
    ----------
    array_bytes:
        Target array size (the paper sweeps 2, 4, 8, 16 GB).
    max_passes:
        Stop after this many full array sweeps (``None`` → run forever,
        until stopped externally).
    page_class:
        ``UNIFORM`` (default, compressible — the paper's memtest) or
        ``DATA`` (incompressible — the compression ablation).
    """

    name = "memtest"

    def __init__(
        self,
        array_bytes: int = 2 * GiB,
        max_passes: Optional[int] = None,
        page_class: PageClass = PageClass.UNIFORM,
    ) -> None:
        self.array_bytes = int(array_bytes)
        self.max_passes = max_passes
        self.page_class = page_class
        #: rank → completed passes (filled as ranks finish).
        self.passes: dict[int, int] = {}

    def rank_main(self, proc: "MpiProcess", comm: "CommView"):
        offset = claim_region(proc.vm, self.array_bytes)
        writer = MemoryWriter(
            proc.vm,
            self.array_bytes,
            page_class=self.page_class,
            offset_bytes=offset,
        )
        yield from comm.barrier()
        while True:
            yield from writer.step()
            # Poll for checkpoint requests between chunks (the MPI
            # progress engine does this in the real runtime).
            yield from proc.maybe_service_cr()
            if self.max_passes is not None and writer.passes >= self.max_passes:
                break
        yield from comm.barrier()
        self.passes[comm.rank] = writer.passes
        return writer.passes
