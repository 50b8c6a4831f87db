"""Workload base class and guest-memory placement helpers."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import GuestError
from repro.units import GiB
from repro.vmm.guest_memory import PageClass

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.communicator import CommView
    from repro.mpi.runtime import MpiProcess
    from repro.vmm.vm import VirtualMachine

#: Guest physical space below this offset belongs to the OS/resident set.
_USER_BASE = 1 * GiB


def claim_region(vm: "VirtualMachine", nbytes: int) -> int:
    """Reserve a guest-physical region for one rank's working set.

    A simple bump allocator per VM: ranks sharing a VM get disjoint
    regions, so their buffers dirty disjoint pages.  Returns the offset.
    """
    cursor = getattr(vm, "_workload_cursor", _USER_BASE)
    if cursor + nbytes > vm.memory.size_bytes:
        raise GuestError(
            f"{vm.name}: workload regions exhausted guest RAM "
            f"({cursor + nbytes} > {vm.memory.size_bytes})"
        )
    vm._workload_cursor = cursor + nbytes  # type: ignore[attr-defined]
    return cursor


class Workload:
    """Base class: a distributed MPI program.

    Subclasses implement :meth:`rank_main` — an SPMD generator executed by
    every rank.  Instances are shared across ranks, so per-rank state must
    live in locals (or be keyed by rank).
    """

    name = "workload"

    def rank_main(self, proc: "MpiProcess", comm: "CommView"):
        """The per-rank program (generator)."""
        raise NotImplementedError
        yield  # pragma: no cover

    # -- shared helpers ---------------------------------------------------------

    @staticmethod
    def populate(
        proc: "MpiProcess",
        nbytes: int,
        page_class: PageClass = PageClass.DATA,
    ) -> int:
        """Materialize a rank's working set in guest memory.

        Marks the pages with ``page_class`` so migration sees the right
        compressibility (NPB arrays are real data; memtest is uniform).
        Returns the region offset.
        """
        offset = claim_region(proc.vm, nbytes)
        proc.vm.memory.write(offset, nbytes, page_class)
        return offset
