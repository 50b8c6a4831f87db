"""Unit tests: the cloud scheduler's policies and triggers."""

import pytest

from repro.core.plan import MigrationPlan
from repro.core.scheduler import CloudScheduler
from repro.errors import SchedulerError
from repro.hardware.cluster import build_agc_cluster
from repro.testbed import busy_rank, create_job, provision_vms
from repro.units import GiB
from tests.conftest import drive


def _setup(ib=2, eth=2):
    cluster = build_agc_cluster(ib_nodes=ib, eth_nodes=eth)
    hosts = [f"ib{i+1:02d}" for i in range(ib)]
    vms = provision_vms(cluster, hosts, memory_bytes=4 * GiB)
    job = create_job(cluster, vms, procs_per_vm=1)
    drive(cluster.env, job.init(), name="init")
    return cluster, vms, job


def test_fallback_placement_spreads():
    cluster, vms, job = _setup()
    scheduler = CloudScheduler(cluster)
    hosts = scheduler.pick_fallback_hosts(vms)
    assert hosts == ["eth01", "eth02"]


def test_fallback_consolidation():
    cluster, vms, job = _setup()
    scheduler = CloudScheduler(cluster)
    hosts = scheduler.pick_fallback_hosts(vms, consolidate_to=1)
    assert hosts == ["eth01"]
    plan = scheduler.plan_fallback(vms, consolidate_to=1)
    assert plan.dst_hostlist == ["eth01", "eth01"]


def test_consolidation_respects_capacity():
    cluster = build_agc_cluster(ib_nodes=2, eth_nodes=2)
    vms = provision_vms(cluster, ["ib01", "ib02"], memory_bytes=30 * GiB)
    scheduler = CloudScheduler(cluster)
    # Two 30 GiB VMs cannot share a 48 GiB host.
    with pytest.raises(SchedulerError):
        scheduler.pick_fallback_hosts(vms, consolidate_to=1)


def test_recovery_placement():
    cluster, vms, job = _setup()
    scheduler = CloudScheduler(cluster)
    assert scheduler.pick_recovery_hosts(vms) == ["ib01", "ib02"]


def test_recovery_excludes_occupied_ib_hosts():
    cluster = build_agc_cluster(ib_nodes=3, eth_nodes=2)
    vms = provision_vms(cluster, ["ib01", "ib02"], memory_bytes=40 * GiB)
    scheduler = CloudScheduler(cluster)
    # ib01/ib02 are full (40 of 48 GiB used); only ib03 has room.
    with pytest.raises(SchedulerError):
        scheduler.pick_recovery_hosts(vms)


def test_scheduled_trigger_runs_ninja():
    cluster, vms, job = _setup()
    env = cluster.env
    job.launch(busy_rank)
    scheduler = CloudScheduler(cluster)
    plan = scheduler.plan_fallback(vms)
    trigger = scheduler.schedule(5.0, "maintenance", plan, job)

    def wait(env):
        result = yield trigger.done
        return result

    result = drive(env, wait(env))
    assert result is not None
    assert trigger.result is result
    assert trigger.error is None
    assert [q.node.name for q in vms] == ["eth01", "eth02"]


def test_trigger_after_job_end_reports_error():
    cluster, vms, job = _setup()
    env = cluster.env

    def quick(proc, comm):
        yield from comm.barrier()
        return None

    job.launch(quick)
    scheduler = CloudScheduler(cluster)
    plan = scheduler.plan_fallback(vms)
    trigger = scheduler.schedule(100.0, "late", plan, job)

    def wait(env):
        yield trigger.done

    drive(env, wait(env))
    assert trigger.result is None
    assert trigger.error is not None


def test_schedule_in_past_rejected():
    cluster, vms, job = _setup()
    cluster.env.run(until=10.0)
    scheduler = CloudScheduler(cluster)
    plan = scheduler.plan_fallback(vms)
    with pytest.raises(SchedulerError):
        scheduler.schedule(5.0, "too-late", plan, job)


def test_plan_spread_auto_attach():
    cluster, vms, job = _setup()
    plan = MigrationPlan.build(cluster, vms, ["ib01", "eth01"], attach_ib=None)
    assert [e.attach_ib for e in plan.entries] == [True, False]
