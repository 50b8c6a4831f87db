"""The shared placement engine: reservation-aware host picking.

Extracted from :class:`~repro.core.scheduler.CloudScheduler` so that the
single-job cloud scheduler and the fleet orchestrator use one capacity
model.  When a :class:`~repro.orchestrator.state.FleetStateStore` is
attached, every availability check nets out reservations held by other
plans — the fix for the "two plans planned in the same tick pick the
same host" race the seed scheduler had.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

from repro.errors import SchedulerError

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.cluster import Cluster
    from repro.hardware.node import PhysicalNode
    from repro.orchestrator.state import FleetStateStore
    from repro.vmm.qemu import QemuProcess


class PlacementEngine:
    """Capacity-aware destination picking over one cluster.

    Parameters
    ----------
    cluster:
        The datacenter to place into.
    state:
        Optional fleet state store; when present, availability is
        ``free_memory - reserved_bytes`` instead of raw free memory, and
        hosts whose HCA is reserved are skipped for attach placements.
    """

    def __init__(
        self, cluster: "Cluster", state: Optional["FleetStateStore"] = None
    ) -> None:
        self.cluster = cluster
        self.state = state

    # -- capacity ------------------------------------------------------------------

    def available_bytes(self, node: "PhysicalNode") -> float:
        if self.state is not None:
            return self.state.available_bytes(node)
        return node.free_memory

    def free_hosts(
        self,
        candidates: Sequence["PhysicalNode"],
        need_bytes: int,
        exclude: Iterable[str] = (),
        need_hca: bool = False,
    ) -> List[str]:
        """Candidate host names with capacity, minus exclusions.

        ``need_hca`` additionally requires an unreserved VMM-bypass
        adapter (only meaningful with a state store attached).
        """
        banned = set(exclude)
        picked = []
        for node in candidates:
            if node.name in banned:
                continue
            if self.available_bytes(node) < need_bytes:
                continue
            if need_hca and self.state is not None and self.state.hca_reserved(node.name):
                continue
            picked.append(node.name)
        return picked

    # -- policies --------------------------------------------------------------------

    def pick_packed(
        self,
        qemus: Sequence["QemuProcess"],
        candidates: Sequence["PhysicalNode"],
        consolidate_to: Optional[int] = None,
        exclude: Iterable[str] = (),
    ) -> List[str]:
        """Pack VMs onto ``consolidate_to`` hosts (default one VM/host).

        The fallback policy: capacity is checked for the worst case of
        ``ceil(nvms / nhosts)`` co-resident VMs per destination.
        """
        if not qemus:
            raise SchedulerError("no VMs to place")
        vm_bytes = max(q.vm.memory.size_bytes for q in qemus)
        nhosts = consolidate_to if consolidate_to is not None else len(qemus)
        if nhosts <= 0:
            raise SchedulerError("consolidate_to must be positive")
        per_host = -(-len(qemus) // nhosts)
        hosts = self.free_hosts(candidates, vm_bytes * per_host, exclude=exclude)
        if len(hosts) < nhosts:
            raise SchedulerError(
                f"need {nhosts} Ethernet hosts with {per_host} VM slots, "
                f"found {len(hosts)}"
            )
        return hosts[:nhosts]

    def pick_spread(
        self,
        qemus: Sequence["QemuProcess"],
        candidates: Sequence["PhysicalNode"],
        exclude: Iterable[str] = (),
        need_hca: bool = False,
        kind: str = "IB",
    ) -> List[str]:
        """One VM per host (the recovery policy)."""
        if not qemus:
            raise SchedulerError("no VMs to place")
        vm_bytes = max(q.vm.memory.size_bytes for q in qemus)
        hosts = self.free_hosts(
            candidates, vm_bytes, exclude=exclude, need_hca=need_hca
        )
        if len(hosts) < len(qemus):
            raise SchedulerError(
                f"need {len(qemus)} {kind} hosts, found {len(hosts)} with capacity"
            )
        return hosts[: len(qemus)]
