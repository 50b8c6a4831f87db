"""Unit tests: virtio backend rebinding and testbed helpers."""

import pytest

from repro.errors import HardwareError
from repro.hardware.cluster import build_agc_cluster
from repro.testbed import (
    PAPER_VCPUS,
    PAPER_VM_MEMORY,
    attach_ib_warm,
    create_job,
    provision_vms,
)
from repro.units import GiB
from repro.vmm.qemu import QemuProcess
from tests.conftest import drive


def test_virtio_backend_follows_migration(cluster):
    qemu = QemuProcess(cluster, cluster.node("ib01"), "vm1", memory_bytes=4 * GiB)
    qemu.boot()
    assert qemu.virtio_nic.backend is cluster.node("ib01").ethernet_nic()

    def main(env):
        job = qemu.migrate(cluster.node("eth01"))
        yield job.done

    drive(cluster.env, main(cluster.env))
    assert qemu.virtio_nic.backend is cluster.node("eth01").ethernet_nic()
    # Guest keeps a working Ethernet interface through the move.
    assert qemu.vm.kernel.eth_interface().is_up


def test_paper_vm_shape_defaults():
    """The paper's VM: 8 vCPUs, 20 GB RAM."""
    assert PAPER_VCPUS == 8
    assert PAPER_VM_MEMORY == 20 * GiB
    cluster = build_agc_cluster(ib_nodes=1, eth_nodes=0)
    vms = provision_vms(cluster, ["ib01"])
    assert vms[0].vm.vcpus == 8
    assert vms[0].vm.memory.size_bytes == 20 * GiB


def test_provision_warm_attach_skips_uncabled(cluster):
    vms = provision_vms(cluster, ["eth01"], memory_bytes=4 * GiB)  # attach_ib=True default
    # No bypass adapter cabled: no assignment, no blocker.
    assert not vms[0].assignments
    assert not vms[0].migration_blockers


def test_warm_attach_requires_boot(cluster):
    qemu = QemuProcess(cluster, cluster.node("ib02"), "cold", memory_bytes=4 * GiB)
    with pytest.raises(HardwareError, match="boot"):
        attach_ib_warm(qemu)
    qemu.boot()
    attach_ib_warm(qemu)
    assert qemu.vm.kernel.ib_interface().is_up


def test_warm_attach_is_instant(cluster):
    t0 = cluster.env.now
    vms = provision_vms(cluster, ["ib01"], memory_bytes=4 * GiB)
    assert cluster.env.now == t0  # no 30 s boot link training charged
    assert vms[0].vm.kernel.ib_interface().is_up


def test_create_job_uses_paper_ft_settings(cluster):
    vms = provision_vms(cluster, ["ib01"], memory_bytes=4 * GiB)
    job = create_job(cluster, vms)
    assert job.ft.ft_enable_cr
    assert job.ft.continue_like_restart
    # SymVirt callbacks installed (libsymvirt loaded).
    assert job.crs.callbacks.checkpoint is not None
    assert job.crs.callbacks.continue_cb is not None
    assert job.crs.callbacks.restart is None  # unused by SymVirt
