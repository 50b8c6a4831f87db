"""Failure-injection tests: broken links, infeasible plans, dead fabrics.

The substrate must fail loudly and leave consistent state — a migration
that cannot run keeps the VM on the source, a fabric outage surfaces as
a transport error, and planners refuse impossible requests.
"""

import pytest

from repro.core.plan import MigrationPlan
from repro.errors import BtlUnreachableError, NetworkError, PlanError
from repro.hardware.cluster import build_agc_cluster
from repro.testbed import create_job, provision_vms
from repro.units import GiB, MiB
from repro.vmm.qemu import QemuProcess
from repro.vmm.vm import RunState
from tests.conftest import drive, link_between


def test_migration_fails_cleanly_on_broken_network():
    """Ethernet link down: the migration reports failed; the VM stays
    running on the source with dirty logging off."""
    cluster = build_agc_cluster(ib_nodes=2, eth_nodes=0)
    env = cluster.env
    qemu = QemuProcess(cluster, cluster.node("ib01"), "vm1", memory_bytes=4 * GiB)
    qemu.boot()
    link_between(cluster.eth_fabric.topology, "ib01", "Dell M8024").fail()
    cluster.eth_fabric.topology.invalidate_routes()

    def main(env):
        job = qemu.migrate(cluster.node("ib02"))
        try:
            yield job.done
        except NetworkError as err:
            return ("failed", job.stats.status)

    outcome = drive(env, main(env))
    assert outcome == ("failed", "failed")
    assert qemu.node.name == "ib01"
    assert qemu.vm.state is RunState.RUNNING
    assert not qemu.vm.memory.dirty_logging


def test_migration_failure_retry_after_repair():
    cluster = build_agc_cluster(ib_nodes=2, eth_nodes=0)
    env = cluster.env
    qemu = QemuProcess(cluster, cluster.node("ib01"), "vm1", memory_bytes=4 * GiB)
    qemu.boot()
    link = link_between(cluster.eth_fabric.topology, "ib01", "Dell M8024")
    link.fail()
    cluster.eth_fabric.topology.invalidate_routes()

    def main(env):
        job = qemu.migrate(cluster.node("ib02"))
        try:
            yield job.done
        except NetworkError:
            pass
        link.restore()
        cluster.eth_fabric.topology.invalidate_routes()
        retry = qemu.migrate(cluster.node("ib02"))
        stats = yield retry.done
        return stats

    stats = drive(env, main(env))
    assert stats.status == "completed"
    assert qemu.node.name == "ib02"


def test_surprise_unplug_fails_over_to_tcp():
    """Yanking the peer's HCA (port leaves ACTIVE) makes the route
    re-select: traffic silently fails over to tcp — no crash, no loss."""
    cluster = build_agc_cluster(ib_nodes=2, eth_nodes=0)
    vms = provision_vms(cluster, ["ib01", "ib02"], memory_bytes=4 * GiB)
    job = create_job(cluster, vms, procs_per_vm=1)
    drive(cluster.env, job.init(), name="init")
    outcome = {}

    def rank_main(proc, comm):
        if comm.rank == 0:
            assert proc.btl.route_name(job.proc(1)) == "openib"
            # Surprise-unplug the peer's port mid-job.
            cluster.ib_fabric.unplug(cluster.ib_fabric.port("ib02"))
            yield from comm.send(1, 8 * MiB, tag=1)
            outcome["route"] = proc.btl.route_name(job.proc(1))
        else:
            message = yield from comm.recv(0, tag=1)
            outcome["received"] = message.nbytes
        return None

    job.launch(rank_main)
    cluster.env.run(until=job.wait())
    assert outcome == {"route": "tcp", "received": 8 * MiB}


def test_plan_rejects_dead_destination():
    cluster = build_agc_cluster(ib_nodes=1, eth_nodes=1)
    vms = provision_vms(cluster, ["ib01"], memory_bytes=40 * GiB)
    blocker = provision_vms(
        cluster, ["eth01"], memory_bytes=40 * GiB, attach_ib=False, name_prefix="blk"
    )
    with pytest.raises(PlanError):
        MigrationPlan.build(cluster, vms, ["eth01"], attach_ib=False)


def test_concurrent_migration_rejected():
    cluster = build_agc_cluster(ib_nodes=3, eth_nodes=0)
    env = cluster.env
    qemu = QemuProcess(cluster, cluster.node("ib01"), "vm1", memory_bytes=4 * GiB)
    qemu.boot()

    def main(env):
        qemu.migrate(cluster.node("ib02"))
        with pytest.raises(Exception, match="in progress"):
            qemu.migrate(cluster.node("ib03"))
        yield qemu.current_migration.done

    drive(env, main(env))


def test_ib_fabric_outage_does_not_break_tcp():
    """IB switch link failure: openib unreachable, tcp keeps working."""
    cluster = build_agc_cluster(ib_nodes=2, eth_nodes=0)
    vms = provision_vms(cluster, ["ib01", "ib02"], memory_bytes=4 * GiB)
    job = create_job(cluster, vms, procs_per_vm=1)
    drive(cluster.env, job.init(), name="init")
    link_between(cluster.ib_fabric.topology, "ib01", "Mellanox M3601Q").fail()
    cluster.ib_fabric.topology.invalidate_routes()
    got = {}

    def rank_main(proc, comm):
        if comm.rank == 0:
            try:
                yield from comm.send(1, 4 * MiB, tag=2)
            except (BtlUnreachableError, NetworkError):
                # Fall back through the selection layer.
                module = proc.btl.module("tcp")
                assert module is not None
                got["fallback"] = True
                yield from comm.send(1, 4 * MiB, tag=2)
        else:
            # Two sends may arrive (failed attempt never delivers).
            message = yield from comm.recv(0, tag=2)
            got["nbytes"] = message.nbytes
        return None

    job.launch(rank_main)
    cluster.env.run(until=job.wait())
    assert got.get("nbytes") == 4 * MiB
