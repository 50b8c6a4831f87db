"""Migration plans: which VMs move where, and what gets detached/attached.

"We assume that the cloud scheduler provides information, including the
source and destination nodes of migration, and the PCI ID of a VMM-bypass
I/O device" (Section III-C) — a :class:`MigrationPlan` is exactly that
information, validated against the cluster before execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.errors import PlanError

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.cluster import Cluster
    from repro.vmm.qemu import QemuProcess


@dataclass
class PlanEntry:
    """One VM's movement."""

    qemu: "QemuProcess"
    dst_host: str
    #: Attach the destination node's IB HCA after the move?
    attach_ib: bool = False

    @property
    def src_host(self) -> str:
        return self.qemu.node.name

    @property
    def is_self_migration(self) -> bool:
        return self.src_host == self.dst_host


@dataclass
class MigrationPlan:
    """A validated multi-VM movement + device plan."""

    cluster: "Cluster"
    entries: List[PlanEntry] = field(default_factory=list)
    label: str = ""

    # -- construction ------------------------------------------------------------

    @classmethod
    def build(
        cls,
        cluster: "Cluster",
        qemus: Sequence["QemuProcess"],
        dst_hosts: Sequence[str],
        attach_ib: Optional[bool] = None,
        label: str = "",
    ) -> "MigrationPlan":
        """Positional mapping with wrap-around (enables consolidation).

        ``attach_ib=None`` auto-resolves per destination: attach whenever
        the destination node has a cabled VMM-bypass adapter (IB HCA or
        Myrinet NIC) and skip otherwise (fallback to Ethernet).
        """
        if not qemus:
            raise PlanError("plan needs at least one VM")
        if not dst_hosts:
            raise PlanError("plan needs at least one destination host")
        entries = []
        for i, qemu in enumerate(qemus):
            dst = dst_hosts[i % len(dst_hosts)]
            node = cluster.node(dst)
            attach = node.has_bypass_fabric if attach_ib is None else attach_ib
            entries.append(PlanEntry(qemu=qemu, dst_host=dst, attach_ib=attach))
        plan = cls(cluster=cluster, entries=entries, label=label)
        plan.validate()
        return plan

    # -- derived views --------------------------------------------------------------

    @property
    def qemus(self) -> List["QemuProcess"]:
        return [e.qemu for e in self.entries]

    @property
    def src_hostlist(self) -> List[str]:
        return [e.src_host for e in self.entries]

    @property
    def dst_hostlist(self) -> List[str]:
        return [e.dst_host for e in self.entries]

    @property
    def mapping(self) -> Dict[str, str]:
        return {e.qemu.vm.name: e.dst_host for e in self.entries}

    @property
    def is_node_to_node(self) -> bool:
        """True when at least one VM really changes hosts (noise applies)."""
        return any(not e.is_self_migration for e in self.entries)

    def incoming_bytes_by_host(self) -> Dict[str, int]:
        """Guest RAM each destination must absorb (self-migrations land
        on RAM the VM already owns and are excluded).

        :meth:`validate` checks this against free memory; fleet-level
        planners use it to answer "what does this plan cost host X".
        """
        incoming_bytes: Dict[str, int] = {}
        for entry in self.entries:
            if entry.is_self_migration:
                continue
            incoming_bytes[entry.dst_host] = (
                incoming_bytes.get(entry.dst_host, 0)
                + entry.qemu.vm.memory.size_bytes
            )
        return incoming_bytes

    # -- validation -------------------------------------------------------------------

    def validate(self) -> None:
        """Check capacity, device availability, and mapping sanity."""
        seen_vms = set()
        for entry in self.entries:
            name = entry.qemu.vm.name
            if name in seen_vms:
                raise PlanError(f"{name} appears twice in the plan")
            seen_vms.add(name)
            node = self.cluster.node(entry.dst_host)  # raises on unknown host
            if entry.attach_ib and not node.has_bypass_fabric:
                raise PlanError(
                    f"{name} → {entry.dst_host}: attach_ib requested but the "
                    f"destination has no cabled IB HCA (or other VMM-bypass "
                    f"adapter)"
                )
        for host, nbytes in self.incoming_bytes_by_host().items():
            node = self.cluster.node(host)
            if nbytes > node.free_memory:
                raise PlanError(
                    f"{host}: plan lands {nbytes} B of guest RAM but only "
                    f"{node.free_memory:.0f} B are free"
                )

    def describe(self) -> str:
        lines = [f"MigrationPlan {self.label or '(unnamed)'}"]
        for e in self.entries:
            arrow = "↺" if e.is_self_migration else "→"
            ib = " +IB" if e.attach_ib else ""
            lines.append(f"  {e.qemu.vm.name}: {e.src_host} {arrow} {e.dst_host}{ib}")
        return "\n".join(lines)
