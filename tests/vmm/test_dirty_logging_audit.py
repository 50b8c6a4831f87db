"""Abort-path audit: no failure may leak dirty logging or a throttle.

Every exception path in the migration job and the Ninja sequence must
leave the guest with dirty logging disabled, the auto-converge throttle
cleared, and the VM unparked (except the documented postcopy VM-loss
case, which parks the VM deliberately).  A leaked dirty log would tax
every future write; a leaked throttle would permanently slow the guest;
a leaked park would wedge the application."""

import pytest

from repro.core.ninja import NinjaMigration
from repro.errors import ReproError
from repro.guestos.process import MemoryWriter
from repro.network.degradation import DegradationEvent, NetworkChaos
from repro.testbed import busy_rank, create_job, provision_vms
from repro.units import GiB, MiB
from repro.vmm.guest_memory import PageClass
from repro.vmm.policy import MigrationPolicy
from repro.vmm.qemu import QemuProcess
from repro.vmm.vm import RunState
from tests.conftest import drive

pytestmark = pytest.mark.faults


@pytest.fixture
def qemu(cluster):
    q = QemuProcess(cluster, cluster.node("ib01"), "vm1", memory_bytes=4 * GiB)
    q.boot()
    return q


def _assert_clean(qemu, expect_state=RunState.RUNNING):
    vm = qemu.vm
    assert not vm.memory.dirty_logging, f"{vm.name} leaked dirty logging"
    assert vm.cpu_throttle == 0.0, f"{vm.name} leaked a cpu throttle"
    assert not vm.hypercall.parked, f"{vm.name} leaked parked"
    assert vm.state is expect_state


def _failed_migrate(cluster, qemu, policy=None, drop_at=None, before_s=1.0):
    env = cluster.env
    if drop_at is not None:
        chaos = NetworkChaos(
            cluster,
            [DegradationEvent(at_time=0.0, kind="drop", duration_s=600.0,
                              link_pattern="ib01*")],
        )

        def drop_later(env):
            yield env.timeout(before_s + drop_at)
            chaos.start()

        env.process(drop_later(env))

    def main(env):
        yield env.timeout(before_s)
        job = qemu.migrate(cluster.node("ib02"), policy=policy)
        try:
            yield job.done
        except ReproError as err:
            return job, err
        return job, None

    return drive(env, main(env))


def test_injected_stream_fault_cleans_up(cluster, qemu):
    cluster.faults.arm("migration.stream")
    job, err = _failed_migrate(cluster, qemu)
    assert err is not None
    assert job.stats.status == "failed"
    assert qemu.node.name == "ib01"  # precopy failure stays on the source
    _assert_clean(qemu)


def test_link_drop_mid_precopy_cleans_up(cluster, qemu):
    """A real network outage mid-round aborts cleanly: the source VM
    keeps running, no dirty logging, no throttle."""
    writer = MemoryWriter(
        qemu.vm, 512 * MiB, page_class=PageClass.DATA,
        chunk_bytes=2 * MiB, write_Bps=2 * GiB,
    )
    cluster.env.process(writer.run())
    job, err = _failed_migrate(cluster, qemu, drop_at=3.0)
    writer.stop()
    assert err is not None
    assert job.stats.status == "failed"
    assert qemu.node.name == "ib01"
    _assert_clean(qemu)


def test_throttled_abort_resets_throttle(cluster, qemu):
    """Failure while auto-converge has the guest throttled must restore
    full speed — the regression this audit exists for."""
    writer = MemoryWriter(
        qemu.vm, 512 * MiB, page_class=PageClass.DATA,
        chunk_bytes=2 * MiB, write_Bps=2 * GiB,
    )
    cluster.env.process(writer.run())
    policy = MigrationPolicy.adaptive(
        postcopy="off", non_convergence_rounds=1, throttle_increment=0.2
    )
    # Drop the link once throttling is underway (kicks start ~3 rounds in).
    job, err = _failed_migrate(cluster, qemu, policy=policy, drop_at=25.0)
    writer.stop()
    assert err is not None
    assert job.stats.auto_converge_kicks >= 1, "fault fired before any throttle"
    _assert_clean(qemu)


def test_postcopy_vm_loss_is_the_only_parked_exception(cluster, qemu):
    """The documented exception: losing a VM after the switchover leaves
    it PAUSED (deliberately unrunnable) — but still with dirty logging
    off and the throttle cleared."""
    qemu.vm.memory.write(1 * GiB, 1 * GiB, PageClass.DATA)
    policy = MigrationPolicy(
        postcopy="always", recover_max_attempts=1, recover_backoff_s=0.5
    )
    job, err = _failed_migrate(cluster, qemu, policy=policy, drop_at=4.0)
    assert err is not None
    assert job.stats.status == "failed"
    vm = qemu.vm
    assert vm.state is RunState.PAUSED
    assert not vm.memory.dirty_logging
    assert vm.cpu_throttle == 0.0


@pytest.mark.parametrize("site", ["ninja.migration", "ninja.attach", "ninja.confirm"])
def test_ninja_abort_rollback_leaves_memory_clean(site):
    """An aborted + rolled-back Ninja sequence leaves every guest with
    dirty logging off, no throttle, unparked, and running at its origin."""
    from repro.hardware.cluster import build_agc_cluster

    cluster = build_agc_cluster(ib_nodes=2, eth_nodes=2)
    vms = provision_vms(cluster, ["ib01", "ib02"], memory_bytes=1 * GiB)
    job = create_job(cluster, vms, procs_per_vm=1)
    drive(cluster.env, job.init(), name="init")
    job.launch(busy_rank)
    cluster.faults.arm(site)

    ninja = NinjaMigration(cluster)
    plan = ninja.fallback_plan(vms, ["eth01", "eth02"])

    def main():
        result = yield from ninja.execute(job, plan)
        return result

    result = drive(cluster.env, main(), name="ninja")
    assert result.aborted
    cluster.env.run(until=cluster.env.now + 60.0)
    for q in vms:
        assert q.node.name in ("ib01", "ib02")
        _assert_clean(q)
