"""Unit tests: guest kernel device management and drivers."""

import pytest

from repro.errors import GuestError
from repro.network.fabric import PortState
from repro.units import GiB
from repro.vmm.qemu import QemuProcess
from tests.conftest import drive


@pytest.fixture
def qemu(cluster):
    q = QemuProcess(cluster, cluster.node("ib01"), "vm1", memory_bytes=4 * GiB)
    q.boot()
    return q


def test_boot_binds_virtio(cluster, qemu):
    kernel = qemu.vm.kernel
    assert "eth0" in kernel.interfaces
    assert kernel.eth_interface().is_up
    assert kernel.ib_interface() is None


def test_hotplug_add_binds_mlx4(cluster, qemu):
    env = cluster.env
    hca = cluster.node("ib01").infiniband_hca()
    assignment = qemu.assign_device(hca, "vf0")

    def main(env):
        yield from qemu.hotplug.attach(assignment)

    drive(env, main(env))
    kernel = qemu.vm.kernel
    iface = kernel.ib_interface()
    assert iface is not None
    assert iface.name == "ib0"
    assert not iface.is_up  # POLLING until the SM activates it


def test_interface_naming_increments(cluster, qemu):
    env = cluster.env
    hca = cluster.node("ib01").infiniband_hca()
    assignment = qemu.assign_device(hca, "vf0")

    def cycle(env):
        yield from qemu.hotplug.attach(assignment)
        yield from qemu.hotplug.detach(assignment)
        yield from qemu.hotplug.attach(assignment)

    drive(env, cycle(env))
    assert qemu.vm.kernel.ib_interface().name == "ib1"  # fresh probe, fresh index


def test_remove_unbound_device_rejected(cluster, qemu):
    from repro.hardware.devices import InfiniBandHca

    stranger = InfiniBandHca()
    with pytest.raises(GuestError):
        qemu.vm.kernel.device_removing(stranger)


def test_mlx4_probe_requires_cabled_port(cluster):
    """Attaching an uncabled HCA (Ethernet-cluster node) fails loudly."""
    q = QemuProcess(cluster, cluster.node("eth01"), "vm-eth", memory_bytes=4 * GiB)
    q.boot()
    hca = cluster.node("eth01").infiniband_hca()
    assignment = q.assign_device(hca, "vf0")
    env = cluster.env

    def main(env):
        yield from q.hotplug.attach(assignment)

    proc = env.process(main(env))
    with pytest.raises(GuestError, match="not cabled"):
        env.run(until=proc)


def test_wait_link_up_event(cluster, qemu):
    env = cluster.env
    hca = cluster.node("ib01").infiniband_hca()
    assignment = qemu.assign_device(hca, "vf0")

    def main(env):
        yield from qemu.hotplug.attach(assignment)
        driver = qemu.vm.kernel.ib_interface().driver
        yield driver.wait_link_up()
        return driver.link_up

    assert drive(env, main(env)) is True
    assert qemu.vm.kernel.ib_interface().is_up


def test_detach_unplugs_fabric_port(cluster, qemu):
    env = cluster.env
    hca = cluster.node("ib01").infiniband_hca()
    assignment = qemu.assign_device(hca, "vf0")

    def main(env):
        yield from qemu.hotplug.attach(assignment)
        driver = qemu.vm.kernel.ib_interface().driver
        yield driver.wait_link_up()
        yield from qemu.hotplug.detach(assignment)

    drive(env, main(env))
    assert cluster.ib_fabric.port("ib01").state is PortState.DOWN
