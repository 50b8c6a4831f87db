"""Unit/integration tests: NFS store, VM snapshots, proactive checkpoint."""

import pytest

from repro.core.checkpointing import ProactiveCheckpoint
from repro.errors import HardwareError, VmmError
from repro.hardware.cluster import build_agc_cluster
from repro.storage.nfs import NfsServer
from repro.testbed import busy_rank, create_job, provision_vms
from repro.units import GiB, MiB
from repro.vmm.guest_memory import PageClass
from repro.vmm.qemu import QemuProcess
from repro.vmm.snapshot import checkpoint_vm, restore_vm
from repro.vmm.vm import RunState
from tests.conftest import drive


# -- NfsServer -----------------------------------------------------------------


def test_nfs_write_read_roundtrip(env):
    store = NfsServer(env, capacity_bytes=10 * GiB, bandwidth_Bps=1 * GiB)

    def main(env):
        image = yield from store.write_image("img", 2 * GiB, meta={"x": 1})
        assert env.now == pytest.approx(2.0)
        got = yield from store.read_image("img")
        assert got.meta == {"x": 1}
        return got

    image = drive(env, main(env))
    assert image.nbytes == 2 * GiB
    assert store.used_bytes == 2 * GiB


def test_nfs_concurrent_writes_share_bandwidth(env):
    store = NfsServer(env, capacity_bytes=10 * GiB, bandwidth_Bps=1 * GiB)
    done = {}

    def writer(env, name):
        yield from store.write_image(name, 1 * GiB)
        done[name] = env.now

    env.process(writer(env, "a"))
    env.process(writer(env, "b"))
    env.run()
    # Two 1 GiB streams on a 1 GiB/s server: both take ~2 s.
    assert done["a"] == pytest.approx(2.0)
    assert done["b"] == pytest.approx(2.0)


def test_nfs_capacity_enforced(env):
    store = NfsServer(env, capacity_bytes=1 * GiB)

    def main(env):
        yield from store.write_image("big", 2 * GiB)

    proc = env.process(main(env))
    with pytest.raises(HardwareError):
        env.run(until=proc)


def test_nfs_overwrite_reuses_space(env):
    store = NfsServer(env, capacity_bytes=3 * GiB, bandwidth_Bps=1 * GiB)

    def main(env):
        yield from store.write_image("img", 2 * GiB)
        yield from store.write_image("img", int(2.5 * GiB))

    drive(env, main(env))
    assert store.used_bytes == int(2.5 * GiB)
    assert len(store.images()) == 1


def test_nfs_delete(env):
    store = NfsServer(env)

    def main(env):
        yield from store.write_image("img", 1 * GiB)

    drive(env, main(env))
    store.delete("img")
    assert store.used_bytes == 0
    with pytest.raises(HardwareError):
        store.image("img")


# -- checkpoint_vm / restore_vm -------------------------------------------------------


@pytest.fixture
def setup(cluster):
    qemu = QemuProcess(cluster, cluster.node("ib01"), "vm1", memory_bytes=4 * GiB)
    qemu.boot()
    store = NfsServer(cluster.env)
    return cluster, qemu, store


def _park(cluster, qemu):
    channel = qemu.vm.hypercall
    channel.register(1)

    def guest(env):
        yield from channel.symvirt_wait()

    cluster.env.process(guest(cluster.env))

    def wait(env):
        yield channel.wait_parked()

    drive(cluster.env, wait(cluster.env))


def test_snapshot_requires_parked_guest(setup):
    cluster, qemu, store = setup

    def main(env):
        yield from checkpoint_vm(qemu, store)

    proc = cluster.env.process(main(cluster.env))
    with pytest.raises(VmmError, match="parked"):
        cluster.env.run(until=proc)


def test_snapshot_blocked_by_passthrough(setup):
    cluster, qemu, store = setup
    from repro.testbed import attach_ib_warm

    attach_ib_warm(qemu)
    _park(cluster, qemu)

    def main(env):
        yield from checkpoint_vm(qemu, store)

    proc = cluster.env.process(main(cluster.env))
    with pytest.raises(VmmError, match="vf0"):
        cluster.env.run(until=proc)


def test_snapshot_and_restore_roundtrip(setup):
    cluster, qemu, store = setup
    qemu.vm.memory.write(1 * GiB, 512 * MiB, PageClass.DATA)
    _park(cluster, qemu)
    data_before = qemu.vm.memory.data_bytes

    def main(env):
        stats = yield from checkpoint_vm(qemu, store)
        restored = yield from restore_vm(
            cluster, store, stats.image_name, cluster.node("eth01"), new_name="vm1r"
        )
        return stats, restored

    stats, restored = drive(cluster.env, main(cluster.env))
    assert store.has_image("vm1.memsnap")
    assert restored.node.name == "eth01"
    assert restored.vm.state is RunState.RUNNING
    assert restored.vm.memory.size_bytes == qemu.vm.memory.size_bytes
    assert restored.vm.memory.data_bytes == pytest.approx(data_before, rel=0.05)
    # The snapshot compressed: wire bytes well under the RAM size.
    assert stats.wire_bytes < qemu.vm.memory.size_bytes / 2


# -- ProactiveCheckpoint over a live job ----------------------------------------------------


def test_proactive_checkpoint_and_restore():
    cluster = build_agc_cluster(ib_nodes=2, eth_nodes=2)
    vms = provision_vms(cluster, ["ib01", "ib02"], memory_bytes=4 * GiB)
    job = create_job(cluster, vms, procs_per_vm=1)
    drive(cluster.env, job.init(), name="init")
    job.launch(busy_rank)
    store = NfsServer(cluster.env)
    ckpt = ProactiveCheckpoint(cluster, store)

    def main(env):
        result = yield from ckpt.execute(job, vms)
        return result

    result = drive(cluster.env, main(cluster.env))
    assert set(result.snapshots) == {"vm1", "vm2"}
    assert result.snapshot_s > 0
    # Job resumed: IB re-attached and ranks alive.
    cluster.env.run(until=cluster.env.now + 5.0)
    assert job.live_ranks == 2
    assert all(q.vm.kernel.has_active_ib for q in vms)

    # Disaster: restore both images on the Ethernet cluster.
    def rebuild(env):
        restored = yield from ckpt.restore(result.image_names, ["eth01", "eth02"], name_suffix="-r")
        return restored

    restored = drive(cluster.env, rebuild(cluster.env), name="rebuild")
    assert [q.node.name for q in restored] == ["eth01", "eth02"]
    assert all(q.vm.state is RunState.RUNNING for q in restored)
    # Restored VMs carry the checkpointed footprint.
    assert all(q.vm.memory.data_bytes > 0 for q in restored)


def test_restore_validations():
    cluster = build_agc_cluster(ib_nodes=1, eth_nodes=1)
    store = NfsServer(cluster.env)
    ckpt = ProactiveCheckpoint(cluster, store)

    def main(env):
        yield from ckpt.restore([], ["eth01"])

    proc = cluster.env.process(main(cluster.env))
    with pytest.raises(Exception):
        cluster.env.run(until=proc)
