"""Unit tests: PCI bus, slots, addresses."""

import pytest

from repro.errors import HardwareError
from repro.hardware.devices import InfiniBandHca
from repro.hardware.pci import PciAddress, PciBus, PciDevice


def test_address_parse_and_str():
    addr = PciAddress.parse("04:00.0")
    assert addr == PciAddress(4, 0, 0)
    assert str(addr) == "04:00.0"
    assert str(PciAddress(0x1A, 0x0B, 7)) == "1a:0b.7"


def test_address_parse_rejects_garbage():
    for bad in ("nope", "04-00.0", "", "04:00"):
        with pytest.raises(HardwareError):
            PciAddress.parse(bad)


def test_attach_detach_cycle():
    bus = PciBus("test", num_slots=4)
    device = PciDevice("widget", "ethernet-nic")
    slot = bus.attach(device)
    assert device.slot is not None
    assert device.address == slot.address
    assert bus.devices() == [device]
    bus.detach(device)
    assert device.slot is None
    assert bus.devices() == []


def test_attach_specific_address():
    bus = PciBus("test")
    bus.add_slot(PciAddress.parse("04:00.0"))
    device = PciDevice("hca", "infiniband-hca")
    bus.attach(device, PciAddress.parse("04:00.0"))
    assert str(device.address) == "04:00.0"


def test_double_attach_rejected():
    bus = PciBus("test")
    device = PciDevice("x", "ethernet-nic")
    bus.attach(device)
    with pytest.raises(HardwareError):
        bus.attach(device)


def test_occupied_slot_rejected():
    bus = PciBus("test", num_slots=1)
    bus.attach(PciDevice("a", "ethernet-nic"))
    with pytest.raises(HardwareError):
        bus.attach(PciDevice("b", "ethernet-nic"))


def test_detach_foreign_device_rejected():
    bus_a, bus_b = PciBus("a"), PciBus("b")
    device = PciDevice("x", "ethernet-nic")
    bus_a.attach(device)
    with pytest.raises(HardwareError):
        bus_b.detach(device)


def test_devices_filter_by_kind():
    bus = PciBus("test")
    hca = InfiniBandHca()
    nic = PciDevice("nic", "ethernet-nic")
    bus.attach(hca)
    bus.attach(nic)
    assert bus.devices("infiniband-hca") == [hca]
    assert len(bus.devices()) == 2


def test_duplicate_slot_rejected():
    bus = PciBus("test", num_slots=2)
    with pytest.raises(HardwareError):
        bus.add_slot(PciAddress(0, 0, 0))
