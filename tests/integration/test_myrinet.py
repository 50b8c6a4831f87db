"""Integration tests: Myrinet support — Section VI's generality claim.

"There is no performance overhead and no limitation in supported
devices, e.g., Myrinet and other devices" — the same Ninja sequence must
carry a job IB → Myrinet → Ethernet with the transport re-selected by
exclusivity at every hop.
"""

import pytest

from repro.core.ninja import NinjaMigration
from repro.core.plan import MigrationPlan
from repro.hardware.cluster import build_heterogeneous_cluster
from repro.testbed import create_job, provision_vms
from repro.units import GiB, MiB
from tests.conftest import drive


def _cluster(ib=2, myri=2, eth=2):
    return build_heterogeneous_cluster(
        ib_nodes=ib, myrinet_nodes=myri, eth_nodes=eth
    )


def _busy(proc, comm):
    """Compute + a real payload exchange per step (so traffic counters
    attribute bytes to whichever transport is current)."""
    for _ in range(1_000_000):
        yield proc.vm.compute(0.2, nthreads=1)
        peer = comm.rank ^ 1
        if peer < comm.size:
            yield from comm.sendrecv(peer, 1 * MiB, peer, tag=9)
        yield from comm.barrier()
    return None


def test_myrinet_cluster_shape():
    cluster = _cluster()
    assert [n.name for n in cluster.myrinet_nodes()] == ["myri01", "myri02"]
    node = cluster.node("myri01")
    assert node.has_bypass_fabric
    assert node.infiniband_hca() is None
    assert node.bypass_device().kind == "myrinet-nic"


def test_myrinet_job_selects_mx():
    cluster = _cluster()
    vms = provision_vms(cluster, ["myri01", "myri02"], memory_bytes=4 * GiB)
    job = create_job(cluster, vms, procs_per_vm=1)
    drive(cluster.env, job.init(), name="init")
    assert [m.name for m in job.proc(0).btl.modules] == ["sm", "mx", "tcp"]
    assert job.proc(0).btl.route_name(job.proc(1)) == "mx"
    assert vms[0].vm.kernel.myrinet_interface().name == "myri0"


def test_mx_bandwidth_near_myri10g():
    cluster = _cluster()
    vms = provision_vms(cluster, ["myri01", "myri02"], memory_bytes=4 * GiB)
    job = create_job(cluster, vms, procs_per_vm=1)
    drive(cluster.env, job.init(), name="init")
    env = cluster.env
    out = {}

    def rank_main(proc, comm):
        if comm.rank == 0:
            t0 = env.now
            yield from comm.send(1, 1 * GiB, tag=1)
            out["elapsed"] = env.now - t0
        else:
            yield from comm.recv(0, tag=1)
        return None

    job.launch(rank_main)
    env.run(until=job.wait())
    expected = 1 * GiB / cluster.calibration.myrinet_link_Bps
    assert out["elapsed"] == pytest.approx(expected, rel=0.05)


def test_ib_to_myrinet_migration():
    """The headline: interconnect-transparent IB → Myrinet migration.

    After the move the link-up wait is the Myrinet FMA's ~2 s, not the
    IB subnet manager's ~30 s, and traffic runs over the mx BTL.
    """
    cluster = _cluster()
    vms = provision_vms(cluster, ["ib01", "ib02"], memory_bytes=4 * GiB)
    job = create_job(cluster, vms, procs_per_vm=1)
    drive(cluster.env, job.init(), name="init")
    job.launch(_busy)
    ninja = NinjaMigration(cluster)
    plan = MigrationPlan.build(
        cluster, vms, ["myri01", "myri02"], attach_ib=None, label="ib->myri"
    )
    assert all(e.attach_ib for e in plan.entries)  # auto-resolved

    def main(env):
        result = yield from ninja.execute(job, plan)
        return result

    result = drive(cluster.env, main(cluster.env))
    cal = cluster.calibration
    b = result.breakdown
    # Hotplug: IB detach + Myrinet attach (+confirm), noise-dilated.
    expected_hotplug = (
        cal.ib_detach_s + cal.myrinet_attach_s + cal.hotplug_confirm_s
    ) * cal.migration_noise_factor
    assert b.hotplug_s == pytest.approx(expected_hotplug, rel=0.02)
    # Link-up is the FMA's seconds, not IB's ~30 s.
    assert b.linkup_s == pytest.approx(cal.myrinet_linkup_s, abs=0.5)
    cluster.env.run(until=cluster.env.now + 5.0)
    assert job.transports_in_use()["mx"] == 2
    assert job.live_ranks == 2


def test_full_tour_ib_myrinet_ethernet():
    """IB → Myrinet → Ethernet, one job, zero restarts."""
    cluster = _cluster()
    vms = provision_vms(cluster, ["ib01", "ib02"], memory_bytes=4 * GiB)
    job = create_job(cluster, vms, procs_per_vm=1)
    drive(cluster.env, job.init(), name="init")
    job.launch(_busy)
    ninja = NinjaMigration(cluster)
    transports = []

    def main(env):
        yield env.timeout(5.0)  # a few exchanges over openib first
        for dst in (["myri01", "myri02"], ["eth01", "eth02"]):
            plan = MigrationPlan.build(cluster, vms, dst, attach_ib=None)
            yield from ninja.execute(job, plan)
            yield env.timeout(5.0)
            transports.append(job.transports_in_use())

    drive(cluster.env, main(cluster.env))
    assert transports[0] == {"mx": 2}
    assert transports[1] == {"tcp": 2}
    assert job.live_ranks == 2
    stats = job.comm_stats()
    # Barrier traffic flowed over every transport the tour visited.
    assert set(stats) >= {"openib", "mx", "tcp"}


def test_mx_endpoint_dies_on_detach():
    cluster = _cluster()
    vms = provision_vms(cluster, ["myri01", "myri02"], memory_bytes=4 * GiB)
    job = create_job(cluster, vms, procs_per_vm=1)
    drive(cluster.env, job.init(), name="init")
    env = cluster.env

    def rank_main(proc, comm):
        if comm.rank == 0:
            yield from comm.send(1, 8 * MiB, tag=1)
        else:
            yield from comm.recv(0, tag=1)
        return None

    job.launch(rank_main)
    env.run(until=job.wait())
    mx = job.proc(0).btl.module("mx")
    endpoint = mx._endpoints[1]
    assert endpoint.alive

    def detach(env):
        qemu = vms[1]
        yield from qemu.hotplug.detach(qemu.assignment("vf0"))

    drive(env, detach(env))
    assert not endpoint.alive
