"""Unit tests: precopy live migration model."""

import pytest

from repro.errors import MigrationBlockedError, MigrationError
from repro.hardware.calibration import PAPER_CALIBRATION
from repro.units import GiB, MiB
from repro.vmm.guest_memory import PageClass
from repro.vmm.qemu import QemuProcess
from repro.vmm.vm import RunState
from tests.conftest import drive


@pytest.fixture
def qemu(cluster):
    q = QemuProcess(cluster, cluster.node("ib01"), "vm1", memory_bytes=4 * GiB)
    q.boot()
    return q


def _migrate(cluster, qemu, dst_name, rdma=False):
    env = cluster.env

    def main(env):
        job = qemu.migrate(cluster.node(dst_name), rdma=rdma)
        stats = yield job.done
        return stats

    return drive(env, main(env))


def test_blocked_by_passthrough(cluster, qemu):
    env = cluster.env
    hca = cluster.node("ib01").infiniband_hca()
    assignment = qemu.assign_device(hca, "vf0")

    def setup(env):
        yield from qemu.hotplug.attach(assignment)

    drive(env, setup(env))
    with pytest.raises(MigrationBlockedError, match="vf0"):
        qemu.migrate(cluster.node("ib02"))


def test_migration_relocates_vm(cluster, qemu):
    stats = _migrate(cluster, qemu, "ib02")
    assert stats.status == "completed"
    assert qemu.node.name == "ib02"
    assert qemu.vm.state is RunState.RUNNING
    assert cluster.node("ib01").vms == []
    assert qemu in cluster.node("ib02").vms


def test_memory_accounting_across_migration(cluster, qemu):
    src, dst = cluster.node("ib01"), cluster.node("ib02")
    free_src, free_dst = src.free_memory, dst.free_memory
    _migrate(cluster, qemu, "ib02")
    assert src.free_memory == free_src + 4 * GiB
    assert dst.free_memory == free_dst - 4 * GiB


def test_idle_vm_single_pass(cluster, qemu):
    stats = _migrate(cluster, qemu, "ib02")
    assert stats.iterations <= 2


def test_scan_dominated_time_for_uniform_memory(cluster, qemu):
    """A mostly-zero 4 GiB VM migrates in ~scan time, not transfer time."""
    cal = PAPER_CALIBRATION
    stats = _migrate(cluster, qemu, "ib02")
    resident = cal.guest_os_resident_bytes
    expected = (
        cal.migration_setup_s
        + (4 * GiB - resident) / cal.page_scan_Bps
        + resident / cal.migration_cpu_cap_Bps
    )
    assert stats.total_time_s == pytest.approx(expected, rel=0.05)


def test_data_footprint_increases_time(cluster):
    times = {}
    for i, data in enumerate((0, 1 * GiB)):
        q = QemuProcess(
            cluster, cluster.node("ib01"), f"vm{i}", memory_bytes=4 * GiB
        )
        q.boot()
        if data:
            q.vm.memory.write(1 * GiB, data, PageClass.DATA)
        stats = _migrate(cluster, q, "ib02")
        times[data] = stats.total_time_s
        q.shutdown()
    cal = PAPER_CALIBRATION
    extra = times[1 * GiB] - times[0]
    # 1 GiB moved from scan-rate to cpu-cap-rate accounting:
    expected_extra = 1 * GiB / cal.migration_cpu_cap_Bps - 1 * GiB / cal.page_scan_Bps
    assert extra == pytest.approx(expected_extra, rel=0.05)


def test_dirtying_workload_forces_rounds(cluster, qemu):
    """A writer dirtying pages faster than the migration rate never
    converges: precopy iterates to its cap, re-transfers the working set
    repeatedly, and the forced stop-and-copy pays a long downtime — the
    classic precopy livelock Ninja migration sidesteps by parking."""
    env = cluster.env
    from repro.guestos.process import MemoryWriter

    writer = MemoryWriter(qemu.vm, 1 * GiB, page_class=PageClass.DATA)
    env.process(writer.run())

    def main(env):
        yield env.timeout(1.0)
        job = qemu.migrate(cluster.node("ib02"))
        stats = yield job.done
        writer.stop()
        return stats

    stats = drive(env, main(env))
    assert stats.iterations >= PAPER_CALIBRATION.max_precopy_rounds
    # Re-transfers inflate wire bytes well past the footprint…
    assert stats.wire_bytes > 5 * GiB
    # …and the final paused round moves ~the whole hot set at ≤1.3 Gbps.
    assert stats.downtime_s > 1.0


def test_parked_vm_no_extra_rounds(cluster, qemu):
    """A SymVirt-parked guest migrates in a single pass (Ninja path)."""
    env = cluster.env
    channel = qemu.vm.hypercall
    channel.register(1)

    def guest(env):
        yield from channel.symvirt_wait()

    def main(env):
        yield channel.wait_parked()
        job = qemu.migrate(cluster.node("ib02"))
        stats = yield job.done
        channel.symvirt_signal()
        return stats

    env.process(guest(env))
    stats = drive(env, main(env))
    assert stats.iterations == 1
    assert stats.downtime_s == 0.0


def test_self_migration_loopback(cluster, qemu):
    stats = _migrate(cluster, qemu, "ib01")
    assert stats.status == "completed"
    assert qemu.node.name == "ib01"


def test_rdma_migration_faster(cluster):
    """Section V's RDMA option removes the 1.3 Gbps CPU cap."""
    results = {}
    for i, rdma in enumerate((False, True)):
        q = QemuProcess(cluster, cluster.node("ib01"), f"v{i}", memory_bytes=4 * GiB)
        q.boot()
        q.vm.memory.write(1 * GiB, 2 * GiB, PageClass.DATA)
        if rdma:
            # RDMA migration needs active IB ports on both hosts.
            for host in ("ib01", "ib02"):
                port = cluster.ib_fabric.port(host)
                if port.state.value != "active":
                    cluster.ib_fabric.force_active(port)
        stats = _migrate(cluster, q, "ib02", rdma=rdma)
        results[rdma] = stats.total_time_s
        q.shutdown()
    assert results[True] < results[False] * 0.6


def test_insufficient_destination_memory(cluster):
    big = QemuProcess(cluster, cluster.node("ib01"), "big", memory_bytes=40 * GiB)
    big.boot()
    blocker = QemuProcess(cluster, cluster.node("ib02"), "blocker", memory_bytes=20 * GiB)
    blocker.boot()
    with pytest.raises(MigrationError, match="insufficient"):
        big.migrate(cluster.node("ib02"))


def test_shutoff_vm_cannot_migrate(cluster, qemu):
    qemu.shutdown()
    with pytest.raises(MigrationError):
        qemu.migrate(cluster.node("ib02"))


def test_query_migrate_stats(cluster, qemu):
    _migrate(cluster, qemu, "ib02")
    stats = qemu.current_migration.stats
    assert stats.wire_bytes > 0
    assert stats.dup_pages > 0
    assert stats.total_time_s > 0
