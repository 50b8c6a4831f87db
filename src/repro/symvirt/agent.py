"""SymVirt agents: one per QEMU, driving the monitor over QMP.

"The SymVirt controller invokes SymVirt agent threads for each QEMU.
A SymVirt agent controls virtual machines by using QEMU monitor commands,
including migrate, device_add, and device_del" (Section III-C).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import SymVirtError
from repro.hardware.pci import PciAddress
from repro.vmm.qmp import QmpClient

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.node import PhysicalNode
    from repro.vmm.qemu import QemuProcess


class SymVirtAgent:
    """Controls one VMM on behalf of the controller (all methods are
    generators — the controller drives them, possibly in parallel)."""

    def __init__(self, qemu: "QemuProcess") -> None:
        self.qemu = qemu
        self.env = qemu.env
        self.qmp = QmpClient(qemu.qmp)

    # -- wait/signal -------------------------------------------------------------

    def wait_parked(self):
        """Block until this VM's guest contexts are all in symvirt_wait."""
        yield self.qemu.vm.hypercall.wait_parked()

    def signal(self):
        """Issue symvirt_signal (resumes the guest contexts)."""
        yield self.env.timeout(self.qemu.calibration.hypercall_s)
        self.qemu.vm.hypercall.symvirt_signal()

    # -- device control -----------------------------------------------------------

    def device_detach(self, tag: str):
        """QMP ``device_del`` + drive the ACPI eject to completion."""
        assignment = self.qemu.assignments.get(tag)
        if assignment is None or not assignment.attached:
            raise SymVirtError(f"{self.qemu.vm.name}: nothing attached as {tag!r}")
        yield from self.qmp.execute("device_del", id=tag)
        yield from self.qemu.hotplug.detach(assignment)

    def device_attach(self, host: str, tag: str):
        """QMP ``device_add`` of the host function at BDF ``host``.

        Creates the VFIO assignment lazily from the (new) host node's
        VMM-bypass adapter (IB HCA or Myrinet NIC), mirroring the paper's
        assumption that "the cloud scheduler provides ... the PCI ID of a
        VMM-bypass I/O device".
        """
        address = PciAddress.parse(host) if host else None
        assignment = self.qemu.assignments.get(tag)
        if assignment is None or assignment.backing.slot is None or (
            assignment.backing.slot.bus is not self.qemu.node.pci
        ):
            adapter = self.qemu.node.bypass_device()
            if adapter is None:
                raise SymVirtError(
                    f"{self.qemu.node.name}: no VMM-bypass adapter to attach as {tag!r}"
                )
            if address is not None and adapter.address != address:
                # The BDF hint names a specific function; on AGC blades
                # there is a single bypass adapter, so mismatches are
                # configuration errors worth surfacing.
                if self.qemu.node.pci.slot(address).device is not adapter:
                    raise SymVirtError(
                        f"{self.qemu.node.name}: no adapter at {address} "
                        f"(found at {adapter.address})"
                    )
            self.qemu.assignments.pop(tag, None)
            assignment = self.qemu.assign_device(adapter, tag)
        yield from self.qmp.execute("device_add", driver="vfio-pci", id=tag, host=host)
        yield from self.qemu.hotplug.attach(assignment)

    def has_attached(self, tag: str) -> bool:
        assignment = self.qemu.assignments.get(tag)
        return assignment is not None and assignment.attached

    # -- migration --------------------------------------------------------------------

    def migrate(self, dst_node: "PhysicalNode", rdma: bool = False, policy=None):
        """QMP ``migrate`` and poll ``query-migrate`` until completion."""
        scheme = "rdma" if rdma else "tcp"
        result = yield from self.qmp.execute(
            "migrate", uri=f"{scheme}:{dst_node.name}:4444", rdma=rdma, policy=policy
        )
        job = result["job"]
        yield job.done
        status = yield from self.qmp.execute("query-migrate")
        if status["status"] != "completed":  # pragma: no cover - defensive
            raise SymVirtError(f"{self.qemu.vm.name}: migration {status['status']}")
        return job.stats
