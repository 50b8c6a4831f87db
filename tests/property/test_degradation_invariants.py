"""Property tests: no degradation schedule breaks the safety invariants.

Whatever the chaos schedule does to the links — bandwidth collapse,
packet loss, latency spikes, outages at arbitrary times — the system
must end in a state :func:`repro.invariants.check` accepts: among
others, no VM parked in ``symvirt_wait`` (a wedged application), no
guest with dirty logging still enabled (a permanent write tax), no
leaked auto-converge throttle (a permanently slow guest), and no VM
claimed by zero or two hosts (a split brain).  A VM may end PAUSED only
in the documented postcopy VM-loss case.

The migration-layer property checks a single (possibly postcopy)
migration under chaos; the sequence-layer property drives a full
transactional Ninja migration and, when the schedule wedges the
controller badly enough to need it, the crash-recovery manager — the
whole stack, end to end."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ninja import NinjaMigration
from repro.errors import ReproError
from repro.guestos.process import MemoryWriter
from repro.hardware.cluster import build_agc_cluster
from repro.network.degradation import DegradationEvent, NetworkChaos
from repro.recovery.recovery import RecoveryManager
from repro.testbed import busy_rank, create_job, provision_vms
from repro.units import GiB, MiB
from repro.vmm.guest_memory import PageClass
from repro.vmm.policy import MigrationPolicy
from repro.vmm.qemu import QemuProcess
from tests.conftest import assert_safe, drive

pytestmark = pytest.mark.faults

#: Longest possible schedule horizon: latest at_time + longest duration.
SCHEDULE_HORIZON_S = 30.0


def degradation_events(kinds=("drop", "bw", "loss", "lat"), patterns=("*", "ib01*")):
    def build(kind, at_time, value, duration, pattern):
        if kind == "bw":
            value = 0.05 + 0.95 * value  # factor in [0.05, 1]
        elif kind == "loss":
            value = 0.8 * value  # loss in [0, 0.8]
        elif kind == "lat":
            value = 0.5 * value  # up to +500 ms
        return DegradationEvent(
            at_time=at_time, kind=kind, value=value,
            duration_s=duration, link_pattern=pattern,
        )

    return st.lists(
        st.builds(
            build,
            kind=st.sampled_from(kinds),
            at_time=st.floats(min_value=0.0, max_value=20.0),
            value=st.floats(min_value=0.0, max_value=1.0),
            duration=st.floats(min_value=0.5, max_value=8.0),
            pattern=st.sampled_from(patterns),
        ),
        min_size=1,
        max_size=5,
    )


@given(
    events=degradation_events(),
    postcopy=st.sampled_from(["off", "fallback", "always"]),
)
@settings(max_examples=20, deadline=None)
def test_no_schedule_breaks_a_single_migration(events, postcopy):
    cluster = build_agc_cluster(ib_nodes=2, eth_nodes=0)
    env = cluster.env
    qemu = QemuProcess(cluster, cluster.node("ib01"), "vm1", memory_bytes=2 * GiB)
    qemu.boot()
    qemu.vm.memory.write(1 * GiB, 512 * MiB, PageClass.DATA)
    writer = MemoryWriter(
        qemu.vm, 256 * MiB, page_class=PageClass.DATA,
        chunk_bytes=4 * MiB, write_Bps=2 * GiB,
    )
    env.process(writer.run(duration_s=60.0))
    chaos = NetworkChaos(cluster, events)
    policy = MigrationPolicy.adaptive(
        postcopy=postcopy,
        max_iterations=6,
        non_convergence_rounds=1,
        throttle_increment=0.3,
        recover_max_attempts=3,
        recover_backoff_s=0.5,
    )

    def main(env):
        chaos.start()
        yield env.timeout(0.5)
        job = qemu.migrate(cluster.node("ib02"), policy=policy)
        try:
            yield job.done
        except ReproError:
            pass
        return job

    drive(env, main(env))
    writer.stop()
    env.run(until=env.now + SCHEDULE_HORIZON_S)  # let the schedule expire
    assert_safe(cluster, qemus=[qemu])


@given(events=degradation_events(patterns=("*", "eth01*")))
@settings(max_examples=8, deadline=None)
def test_no_schedule_wedges_a_ninja_sequence(events):
    cluster = build_agc_cluster(ib_nodes=2, eth_nodes=2)
    env = cluster.env
    vms = provision_vms(cluster, ["ib01", "ib02"], memory_bytes=1 * GiB)
    job = create_job(cluster, vms, procs_per_vm=1)
    drive(env, job.init(), name="init")
    job.launch(busy_rank)
    ninja = NinjaMigration(
        cluster, migration_policy=MigrationPolicy.adaptive(postcopy="fallback")
    )
    plan = ninja.fallback_plan(vms, ["eth01", "eth02"])
    chaos = NetworkChaos(cluster, events)

    def main():
        chaos.start()
        yield env.timeout(0.1)
        try:
            yield from ninja.execute(job, plan)
        except ReproError:
            pass  # aborted or unrecoverable: recovery cleans up below

    drive(env, main(), name="ninja")
    # Wait out the whole chaos schedule, then reconcile whatever is left:
    # an unrecoverable rollback (links died mid-compensation) is exactly
    # what the crash-recovery manager exists for.
    env.run(until=env.now + SCHEDULE_HORIZON_S)
    if ninja.journal.unfinished() or any(q.vm.hypercall.parked for q in vms):
        manager = RecoveryManager(cluster, ninja.journal)

        def recover():
            report = yield from manager.recover(reason="degradation property")
            return report

        report = drive(env, recover(), name="recover")
        assert report.clean, [d.error for d in report.decisions]
    env.run(until=env.now + 60.0)
    assert_safe(cluster, ninja.journal, qemus=vms)
