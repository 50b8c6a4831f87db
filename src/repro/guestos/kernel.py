"""The guest kernel: bus scan, hotplug event handling, interface registry.

This is the guest half of the ``acpiphp`` handshake: QEMU's hotplug
controller notifies the kernel, which binds/unbinds drivers and maintains
the interface list the Open MPI BTLs later probe (Section III-C: "the
guest OS needs to be able to recognize the addition and removal of a
device to migrate a VM safely").
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING, Dict, Optional

from repro.errors import GuestError
from repro.guestos.drivers import (
    DRIVER_TABLE,
    Driver,
    Mlx4Driver,
    MyriMxDriver,
)
from repro.guestos.netstack import NetInterface

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.pci import PciDevice
    from repro.vmm.qemu import QemuProcess


class GuestKernel:
    """Per-VM guest OS state."""

    def __init__(self, qemu: "QemuProcess") -> None:
        self.qemu = qemu
        self.env = qemu.env
        self.vm = qemu.vm
        self._drivers: Dict["PciDevice", Driver] = {}
        self.interfaces: Dict[str, NetInterface] = {}
        self._ib_index = count()
        self._myri_index = count()
        self._eth_index = count()

    # -- tracing ----------------------------------------------------------------

    def trace(self, category: str, event: str, **fields: object) -> None:
        self.qemu.trace(f"guest.{category}", event, **fields)

    # -- boot ------------------------------------------------------------------------

    def boot(self) -> None:
        """Initial PCI bus scan: bind drivers to everything present."""
        for device in self.vm.guest_pci.devices():
            self._bind(device)
        self.trace("kernel", "boot", interfaces=sorted(self.interfaces))

    # -- hotplug entry points (called by the VMM's hotplug controller) ----------------

    def device_added(self, device: "PciDevice") -> Driver:
        """acpiphp saw a bus-check: bind a driver to the new function."""
        return self._bind(device)

    def device_removing(self, device: "PciDevice") -> None:
        """acpiphp eject request: unbind the driver before removal."""
        driver = self._drivers.pop(device, None)
        if driver is None:
            raise GuestError(f"{self.vm.name}: no driver bound to {device.model!r}")
        for name, iface in list(self.interfaces.items()):
            if iface.driver is driver:
                del self.interfaces[name]
        driver.remove()
        self.trace("kernel", "device_removed", model=device.model)

    # -- queries -----------------------------------------------------------------------

    def has_driver(self, device: "PciDevice") -> bool:
        """Is a driver currently bound to ``device``?

        ``False`` for a seated-but-driverless function — the signature of a
        hotplug primitive that was interrupted mid-flight (the transactional
        orchestrator uses this to finish half-done ejects during rollback).
        """
        return device in self._drivers

    def ib_interface(self) -> Optional[NetInterface]:
        """The first InfiniBand interface, if one exists."""
        for iface in self.interfaces.values():
            if iface.kind == "infiniband":
                return iface
        return None

    def bypass_interfaces(self) -> list[NetInterface]:
        """All VMM-bypass interfaces (InfiniBand + Myrinet)."""
        return [
            iface
            for iface in self.interfaces.values()
            if iface.kind in ("infiniband", "myrinet")
        ]

    def myrinet_interface(self) -> Optional[NetInterface]:
        """The first Myrinet interface, if one exists."""
        for iface in self.interfaces.values():
            if iface.kind == "myrinet":
                return iface
        return None

    def eth_interface(self) -> NetInterface:
        """The first Ethernet interface (always present: virtio)."""
        for iface in self.interfaces.values():
            if iface.kind == "ethernet":
                return iface
        raise GuestError(f"{self.vm.name}: no Ethernet interface")

    # -- internals -------------------------------------------------------------------------

    def _bind(self, device: "PciDevice") -> Driver:
        driver_cls = DRIVER_TABLE.get(device.kind)
        if driver_cls is None:
            raise GuestError(f"{self.vm.name}: no driver for kind {device.kind!r}")
        driver = driver_cls(self, device)
        driver.probe()
        self._drivers[device] = driver
        if isinstance(driver, Mlx4Driver):
            name = f"ib{next(self._ib_index)}"
            kind = "infiniband"
        elif isinstance(driver, MyriMxDriver):
            name = f"myri{next(self._myri_index)}"
            kind = "myrinet"
        else:
            name = f"eth{next(self._eth_index)}"
            kind = "ethernet"
        iface = NetInterface(name=name, kind=kind, driver=driver, port=driver.port)
        self.interfaces[name] = iface
        self.trace("kernel", "device_added", model=device.model, iface=name)
        return driver
