"""Unit tests: VM run states, the run gate, and the SymVirt hypercall."""

import pytest

from repro.errors import SymVirtError
from repro.units import GiB
from repro.vmm.qemu import QemuProcess
from repro.vmm.vm import RunState
from tests.conftest import drive


@pytest.fixture
def qemu(cluster):
    q = QemuProcess(cluster, cluster.node("ib01"), "vm1", vcpus=8, memory_bytes=4 * GiB)
    q.boot()
    return q


def test_boot_populates_resident(qemu):
    assert qemu.vm.state is RunState.RUNNING
    assert qemu.vm.memory.data_bytes > 0
    assert qemu.vm.kernel is not None


def test_run_gate_blocks_paused_vm(cluster, qemu):
    env = cluster.env
    log = []

    def guest(env, vm):
        for _ in range(3):
            yield vm.run_gate.passage()
            log.append(env.now)
            yield env.timeout(1.0)

    def pauser(env, vm):
        yield env.timeout(1.5)
        vm.set_state(RunState.PAUSED)
        yield env.timeout(5.0)
        vm.set_state(RunState.RUNNING)

    env.process(guest(env, qemu.vm))
    env.process(pauser(env, qemu.vm))
    env.run()
    assert log == [0.0, 1.0, 6.5]


def test_compute_uses_host_cores(cluster, qemu):
    env = cluster.env

    def main(env):
        yield qemu.vm.compute(2.0, nthreads=8)

    drive(env, main(env))
    assert env.now == pytest.approx(2.0)


def test_compute_overcommit_dilation(cluster):
    """Two co-located 8-rank VMs dilate compute superlinearly."""
    env = cluster.env
    node = cluster.node("ib01")
    a = QemuProcess(cluster, node, "a", vcpus=8, memory_bytes=4 * GiB)
    b = QemuProcess(cluster, node, "b", vcpus=8, memory_bytes=4 * GiB)
    a.boot()
    b.boot()
    a.vm.mpi_ranks = 8
    b.vm.mpi_ranks = 8

    def main(env):
        yield env.all_of([a.vm.compute(1.0, nthreads=8), b.vm.compute(1.0, nthreads=8)])

    drive(env, main(env))
    exponent = cluster.calibration.busy_poll_overcommit_exponent
    # 16 threads on 8 cores: fair-share 2x dilation × busy-poll factor.
    expected = 1.0 * (16 / 8) ** exponent * 2.0
    assert env.now == pytest.approx(expected, rel=0.01)


def test_hypercall_wait_signal_roundtrip(cluster, qemu):
    env = cluster.env
    channel = qemu.vm.hypercall
    channel.register(2)
    order = []

    def guest_ctx(env, name):
        yield from channel.symvirt_wait()
        order.append((name, env.now))

    def vmm_side(env):
        yield channel.wait_parked()
        order.append(("parked", env.now))
        yield env.timeout(3.0)
        channel.symvirt_signal()

    env.process(guest_ctx(env, "rank0"))
    env.process(guest_ctx(env, "rank1"))
    vmm = env.process(vmm_side(env))
    env.run()
    assert order[0][0] == "parked"
    assert {order[1][0], order[2][0]} == {"rank0", "rank1"}
    assert order[1][1] >= 3.0


def test_partial_wait_does_not_park(cluster, qemu):
    env = cluster.env
    channel = qemu.vm.hypercall
    channel.register(2)

    def one_ctx(env):
        yield from channel.symvirt_wait()

    env.process(one_ctx(env))
    env.run(until=1.0)
    assert not channel.parked


def test_signal_while_not_parked_rejected(cluster, qemu):
    channel = qemu.vm.hypercall
    channel.register(1)
    with pytest.raises(SymVirtError):
        channel.symvirt_signal()


def test_wait_without_registration_rejected(cluster, qemu):
    env = cluster.env
    channel = qemu.vm.hypercall

    def ctx(env):
        yield from channel.symvirt_wait()

    proc = env.process(ctx(env))
    with pytest.raises(SymVirtError):
        env.run(until=proc)


def test_park_closes_run_gate(cluster, qemu):
    env = cluster.env
    channel = qemu.vm.hypercall
    channel.register(1)

    def ctx(env):
        yield from channel.symvirt_wait()

    def vmm(env):
        yield channel.wait_parked()
        assert not qemu.vm.run_gate.is_open
        channel.symvirt_signal()

    env.process(ctx(env))
    proc = env.process(vmm(env))
    env.run()
    assert qemu.vm.run_gate.is_open


def test_shutdown_releases_resources(cluster, qemu):
    node = cluster.node("ib01")
    free_before = node.free_memory
    qemu.shutdown()
    assert node.free_memory == free_before + 4 * GiB
    assert qemu not in node.vms
