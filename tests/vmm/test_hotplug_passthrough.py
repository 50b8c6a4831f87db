"""Unit tests: passthrough assignment + ACPI hotplug timing."""

import pytest

from repro.errors import HotplugError, VmmError
from repro.hardware.calibration import PAPER_CALIBRATION
from repro.network.fabric import PortState
from repro.units import GiB
from repro.vmm.qemu import QemuProcess
from tests.conftest import drive


@pytest.fixture
def qemu(cluster):
    q = QemuProcess(cluster, cluster.node("ib01"), "vm1", memory_bytes=4 * GiB)
    q.boot()
    return q


def test_attach_timing_and_driver_binding(cluster, qemu):
    env = cluster.env
    hca = cluster.node("ib01").infiniband_hca()
    assignment = qemu.assign_device(hca, "vf0")

    def main(env):
        yield from qemu.hotplug.attach(assignment)

    drive(env, main(env))
    assert env.now == pytest.approx(PAPER_CALIBRATION.ib_attach_s)
    assert assignment.attached
    assert "vf0" in qemu.migration_blockers
    iface = qemu.vm.kernel.ib_interface()
    assert iface is not None
    assert iface.driver.port.state is PortState.POLLING  # link training started


def test_linkup_after_attach(cluster, qemu):
    env = cluster.env
    hca = cluster.node("ib01").infiniband_hca()
    assignment = qemu.assign_device(hca, "vf0")

    def main(env):
        yield from qemu.hotplug.attach(assignment)
        driver = qemu.vm.kernel.ib_interface().driver
        yield driver.wait_link_up()

    drive(env, main(env))
    expected = PAPER_CALIBRATION.ib_attach_s + PAPER_CALIBRATION.ib_linkup_s
    assert env.now == pytest.approx(expected, abs=0.01)
    assert qemu.vm.kernel.ib_interface().is_up


def test_detach_timing_and_cleanup(cluster, qemu):
    env = cluster.env
    hca = cluster.node("ib01").infiniband_hca()
    assignment = qemu.assign_device(hca, "vf0")

    def main(env):
        yield from qemu.hotplug.attach(assignment)
        t0 = env.now
        yield from qemu.hotplug.detach(assignment)
        return env.now - t0

    elapsed = drive(env, main(env))
    assert elapsed == pytest.approx(PAPER_CALIBRATION.ib_detach_s)
    assert not assignment.attached
    assert "vf0" not in qemu.migration_blockers
    assert qemu.vm.kernel.ib_interface() is None


def test_noise_factor_dilates(cluster, qemu):
    env = cluster.env
    hca = cluster.node("ib01").infiniband_hca()
    assignment = qemu.assign_device(hca, "vf0")
    qemu.hotplug.noise_factor = PAPER_CALIBRATION.migration_noise_factor

    def main(env):
        yield from qemu.hotplug.attach(assignment)

    drive(env, main(env))
    expected = PAPER_CALIBRATION.ib_attach_s * PAPER_CALIBRATION.migration_noise_factor
    assert env.now == pytest.approx(expected)


def test_detach_unattached_rejected(cluster, qemu):
    env = cluster.env
    hca = cluster.node("ib01").infiniband_hca()
    assignment = qemu.assign_device(hca, "vf0")

    def main(env):
        yield from qemu.hotplug.detach(assignment)

    proc = env.process(main(env))
    with pytest.raises(HotplugError):
        env.run(until=proc)


def test_confirm_cost(cluster, qemu):
    env = cluster.env

    def main(env):
        yield from qemu.hotplug.confirm()

    drive(env, main(env))
    assert env.now == pytest.approx(PAPER_CALIBRATION.hotplug_confirm_s)


def test_assignment_requires_sriov(cluster, qemu):
    nic = cluster.node("ib01").ethernet_nic()
    # The Broadcom NIC is SR-IOV capable in the catalog; fabricate one
    # that is not:
    from repro.hardware.devices import EthernetNic
    from repro.hardware.specs import DeviceSpec

    plain = EthernetNic(
        DeviceSpec(model="plain", kind="ethernet-nic", link_rate_Bps=1e9, sriov_capable=False)
    )
    with pytest.raises(VmmError):
        qemu.assign_device(plain, "bad")


def test_duplicate_tag_rejected(cluster, qemu):
    hca = cluster.node("ib01").infiniband_hca()
    qemu.assign_device(hca, "vf0")
    with pytest.raises(VmmError):
        qemu.assign_device(hca, "vf0")


def test_virtio_hotplug_fast(cluster, qemu):
    """Ethernet-class device hotplug is an order of magnitude faster."""
    assert PAPER_CALIBRATION.virtio_attach_s < PAPER_CALIBRATION.ib_attach_s / 5
    assert PAPER_CALIBRATION.virtio_detach_s < PAPER_CALIBRATION.ib_detach_s / 5
