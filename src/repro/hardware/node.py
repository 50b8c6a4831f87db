"""Physical compute node: cores + RAM + PCI devices, hosting QEMU VMs."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import HardwareError
from repro.hardware.cpu import HostCpu
from repro.hardware.devices import NetworkDevice, make_device
from repro.hardware.pci import PciAddress, PciBus
from repro.hardware.specs import NodeSpec

#: Well-known host BDFs, matching the paper's script (Figure 5 attaches
#: the HCA function at host ``04:00.0``).
HCA_BDF = PciAddress.parse("04:00.0")
NIC_BDF = PciAddress.parse("02:00.0")
from repro.sim.resources import Container

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment
    from repro.vmm.qemu import QemuProcess
    from repro.hardware.devices import EthernetNic, InfiniBandHca


class PhysicalNode:
    """One blade server (Table I row), ready to host VMs.

    Parameters
    ----------
    env:
        Simulation environment.
    name:
        Hostname, e.g. ``"ib03"`` / ``"eth01"``.
    spec:
        Hardware description; devices listed in the spec are instantiated
        and seated on the node's PCI bus.
    serial:
        Unique small integer used to derive device identities (GUIDs/MACs).
    """

    def __init__(
        self, env: "Environment", name: str, spec: NodeSpec, serial: int = 0
    ) -> None:
        self.env = env
        self.name = name
        self.spec = spec
        self.serial = serial
        self.cpu = HostCpu(env, spec.total_cores, name=f"{name}.cpu")
        #: Free host RAM pool; QEMU processes draw their guest RAM from it.
        self.memory = Container(env, capacity=spec.memory_bytes, init=spec.memory_bytes)
        self.pci = PciBus(name=f"{name}.pci")
        self.pci.add_slot(NIC_BDF)
        self.pci.add_slot(HCA_BDF)
        #: QEMU processes currently running on this node.
        self.vms: list["QemuProcess"] = []
        #: Set when the host dies without warning (power loss, kernel
        #: panic).  A failed host accepts no new VMs; its resident guests
        #: are gone and only a checkpoint restore elsewhere can bring the
        #: jobs back.
        self.failed = False
        for i, dev_spec in enumerate(spec.devices):
            device = make_device(dev_spec, serial=serial * 16 + i)
            # Seat at the paper's well-known addresses (the bypass adapter
            # at 04:00.0 so Figure 5's device_attach host= hint resolves).
            if dev_spec.kind in ("infiniband-hca", "myrinet-nic"):
                self.pci.attach(device, HCA_BDF)
            elif dev_spec.kind == "ethernet-nic":
                self.pci.attach(device, NIC_BDF)
            else:
                self.pci.attach(device)

    # -- device lookup ---------------------------------------------------------

    def infiniband_hca(self) -> Optional["InfiniBandHca"]:
        """The node's IB HCA if present (host side, before passthrough)."""
        devices = self.pci.devices("infiniband-hca")
        return devices[0] if devices else None  # type: ignore[return-value]

    def bypass_device(self) -> Optional[NetworkDevice]:
        """The node's first *cabled* VMM-bypass device (IB or Myrinet)."""
        from repro.hardware.devices import BYPASS_KINDS

        for kind in BYPASS_KINDS:
            for device in self.pci.devices(kind):
                if getattr(device, "port", None) is not None:
                    return device  # type: ignore[return-value]
        return None

    @property
    def has_bypass_fabric(self) -> bool:
        """True when a cabled VMM-bypass device exists (IB or Myrinet)."""
        return self.bypass_device() is not None

    def ethernet_nic(self) -> "EthernetNic":
        """The node's 10 GbE NIC (always present on AGC blades)."""
        devices = self.pci.devices("ethernet-nic")
        if not devices:
            raise HardwareError(f"{self.name}: no Ethernet NIC")
        return devices[0]  # type: ignore[return-value]

    @property
    def has_infiniband(self) -> bool:
        """True when an IB HCA is seated **and** cabled into a fabric."""
        hca = self.infiniband_hca()
        return hca is not None and hca.port is not None

    # -- memory accounting -------------------------------------------------------

    def reserve_memory(self, nbytes: int) -> None:
        """Claim host RAM for a new VM (immediate; raises when oversubscribed).

        The paper's setup never overcommits RAM (20 GB VMs on 48 GB hosts,
        at most 2 VMs/host), so allocation is modelled as instantaneous.
        """
        if self.failed:
            raise HardwareError(f"{self.name}: host has failed")
        if nbytes > self.memory.level:
            raise HardwareError(
                f"{self.name}: cannot reserve {nbytes} B "
                f"({self.memory.level:.0f} B free)"
            )
        # Container.get() is instant when the level suffices.
        self.memory.get(nbytes)

    def release_memory(self, nbytes: int) -> None:
        """Return host RAM when a VM leaves or is destroyed."""
        self.memory.put(nbytes)

    @property
    def free_memory(self) -> float:
        return self.memory.level

    # -- VM registry ----------------------------------------------------------------

    def register_vm(self, qemu: "QemuProcess") -> None:
        self.vms.append(qemu)

    def unregister_vm(self, qemu: "QemuProcess") -> None:
        if qemu in self.vms:
            self.vms.remove(qemu)

    @property
    def vcpu_count(self) -> int:
        """Total vCPUs of resident VMs (overcommit indicator)."""
        return sum(q.vm.vcpus for q in self.vms)

    @property
    def busy_threads(self) -> int:
        """Threads that busy-poll when idle (MPI ranks of resident VMs)."""
        return sum(getattr(q.vm, "mpi_ranks", 0) for q in self.vms)

    def contention_factor(self, exponent: float) -> float:
        """CPU dilation under rank overcommit (1.0 when not overcommitted).

        Open MPI ranks spin in their progress loop, so every resident rank
        competes for cycles even while logically waiting; past one rank
        per core the slowdown is superlinear (vCPU preemption amplifies
        VM exits).
        """
        ratio = self.busy_threads / self.cpu.cores
        if ratio <= 1.0:
            return 1.0
        return ratio ** exponent

    def __repr__(self) -> str:  # pragma: no cover
        return f"<PhysicalNode {self.name} vms={len(self.vms)}>"
