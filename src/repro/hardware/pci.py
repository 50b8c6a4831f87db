"""PCI bus model: addresses, slots, devices, hot(un)plug bookkeeping.

Only the structure that the migration path depends on is modelled: stable
BDF ("bus:device.function") addresses, hot-pluggable slots, and the
attach/detach life-cycle that :mod:`repro.vmm.hotplug` and the guest's
``acpiphp`` driver coordinate over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import HardwareError


@dataclass(frozen=True, order=True)
class PciAddress:
    """A PCI bus/device/function address, e.g. ``04:00.0``."""

    bus: int
    device: int
    function: int = 0

    @classmethod
    def parse(cls, text: str) -> "PciAddress":
        """Parse ``"04:00.0"`` (the format Figure 5's script uses)."""
        try:
            bus_s, rest = text.split(":")
            dev_s, fn_s = rest.split(".")
            return cls(int(bus_s, 16), int(dev_s, 16), int(fn_s, 16))
        except (ValueError, AttributeError) as err:
            raise HardwareError(f"bad PCI address {text!r}") from err

    def __str__(self) -> str:
        return f"{self.bus:02x}:{self.device:02x}.{self.function:x}"


class PciDevice:
    """Base class for everything that can sit in a PCI slot.

    Subclasses (see :mod:`repro.hardware.devices`) add behaviour; this base
    carries identity and attachment state.
    """

    def __init__(self, model: str, kind: str) -> None:
        self.model = model
        self.kind = kind
        #: The slot currently holding the device (None when unplugged).
        self.slot: Optional["PciSlot"] = None
        #: Free-form tag used by SymVirt scripts ("vf0" in Figure 5).
        self.tag: str = ""

    @property
    def address(self) -> Optional[PciAddress]:
        """The device's current BDF, or None when unplugged."""
        return self.slot.address if self.slot is not None else None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.model!r} at {self.address}>"


class PciSlot:
    """One hot-pluggable slot on a :class:`PciBus`."""

    def __init__(self, bus: "PciBus", address: PciAddress) -> None:
        self.bus = bus
        self.address = address
        self.device: Optional[PciDevice] = None
        #: ACPI slot power state; hotplug transitions it.
        self.powered: bool = True

    @property
    def occupied(self) -> bool:
        return self.device is not None

    def insert(self, device: PciDevice) -> None:
        """Physically seat a device (no OS interaction — see vmm.hotplug)."""
        if self.device is not None:
            raise HardwareError(f"slot {self.address} already occupied")
        if device.slot is not None:
            raise HardwareError(f"device {device.model!r} already seated")
        self.device = device
        device.slot = self

    def remove(self) -> PciDevice:
        """Physically unseat the device."""
        if self.device is None:
            raise HardwareError(f"slot {self.address} is empty")
        device, self.device = self.device, None
        device.slot = None
        return device


class PciBus:
    """A host or guest PCI topology: a set of addressable slots."""

    def __init__(self, name: str = "pci0", num_slots: int = 32) -> None:
        self.name = name
        self._slots: Dict[PciAddress, PciSlot] = {}
        for dev in range(num_slots):
            addr = PciAddress(0, dev, 0)
            self._slots[addr] = PciSlot(self, addr)

    def __iter__(self):
        return iter(self._slots.values())

    def add_slot(self, address: PciAddress) -> PciSlot:
        """Declare an extra slot at a specific BDF (e.g. ``04:00.0``)."""
        if address in self._slots:
            raise HardwareError(f"{self.name}: slot {address} already exists")
        slot = PciSlot(self, address)
        self._slots[address] = slot
        return slot

    def slot(self, address: PciAddress) -> PciSlot:
        """Look up a slot by address."""
        try:
            return self._slots[address]
        except KeyError:
            raise HardwareError(f"{self.name}: no slot at {address}") from None

    def free_slot(self) -> PciSlot:
        """First unoccupied slot (device-number order)."""
        for addr in sorted(self._slots):
            if not self._slots[addr].occupied:
                return self._slots[addr]
        raise HardwareError(f"{self.name}: no free PCI slot")

    def attach(self, device: PciDevice, address: Optional[PciAddress] = None) -> PciSlot:
        """Seat ``device`` in ``address`` (or the first free slot)."""
        slot = self.slot(address) if address is not None else self.free_slot()
        slot.insert(device)
        return slot

    def detach(self, device: PciDevice) -> PciSlot:
        """Unseat ``device``; returns the slot it occupied."""
        if device.slot is None or device.slot.bus is not self:
            raise HardwareError(f"{device.model!r} is not on bus {self.name}")
        slot = device.slot
        slot.remove()
        return slot

    def devices(self, kind: Optional[str] = None) -> list[PciDevice]:
        """All seated devices, optionally filtered by ``kind``."""
        found = [s.device for s in self._slots.values() if s.device is not None]
        if kind is not None:
            found = [d for d in found if d.kind == kind]
        return sorted(found, key=lambda d: d.address)  # type: ignore[arg-type,return-value]
