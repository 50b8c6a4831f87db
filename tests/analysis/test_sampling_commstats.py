"""Unit tests: job-wide communication stats."""

import pytest

from repro.core.plan import MigrationPlan
from repro.core.scheduler import CloudScheduler
from repro.hardware.cluster import build_agc_cluster
from repro.testbed import create_job, provision_vms
from repro.units import GiB, MiB
from tests.conftest import drive


def test_comm_stats_across_fallback():
    """Traffic totals survive BTL reconstruction and attribute bytes to
    the transport that actually carried them."""
    cluster = build_agc_cluster(ib_nodes=2, eth_nodes=2)
    vms = provision_vms(cluster, ["ib01", "ib02"], memory_bytes=4 * GiB)
    job = create_job(cluster, vms, procs_per_vm=1)
    drive(cluster.env, job.init(), name="init")
    env = cluster.env

    def rank_main(proc, comm):
        for _ in range(40):
            peer = 1 - comm.rank
            yield from comm.sendrecv(peer, 32 * MiB, peer, tag=1)
            yield env.timeout(1.0)
        return None

    job.launch(rank_main)
    scheduler = CloudScheduler(cluster)

    def orchestrate(env):
        yield env.timeout(5.0)
        plan = MigrationPlan.build(cluster, vms, ["eth01", "eth02"], attach_ib=False)
        yield from scheduler.run_now("fallback", plan, job)

    env.process(orchestrate(env))
    env.run(until=job.wait())
    stats = job.comm_stats()
    assert stats["openib"] > 0     # pre-fallback traffic
    assert stats["tcp"] > 0        # post-fallback traffic
    total = 2 * 40 * 32 * MiB      # 2 ranks x 40 exchanges x 32 MiB
    assert sum(stats.values()) == pytest.approx(total, rel=0.01)
