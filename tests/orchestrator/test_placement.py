"""Placement engine, plan claims in the fleet store, and the cloud scheduler."""

import pytest

from repro.core.plan import MigrationPlan
from repro.core.scheduler import CloudScheduler
from repro.errors import SchedulerError
from repro.orchestrator import FleetOrchestrator
from repro.orchestrator.placement import PlacementEngine
from repro.orchestrator.state import FleetStateStore
from repro.testbed import create_job, provision_vms
from repro.units import GiB

from tests.conftest import drive


def _vms(cluster, hosts, prefix="vm"):
    qemus = provision_vms(cluster, hosts, memory_bytes=4 * GiB, name_prefix=prefix)
    job = create_job(cluster, qemus)
    drive(cluster.env, job.init(), name=f"init.{prefix}")
    return job, qemus


def test_packed_and_spread_policies(cluster44):
    _, qemus = _vms(cluster44, ["ib01", "ib02"])
    engine = PlacementEngine(cluster44)
    assert engine.pick_packed(qemus, cluster44.eth_only_nodes()) == ["eth01", "eth02"]
    assert engine.pick_packed(
        qemus, cluster44.eth_only_nodes(), consolidate_to=1
    ) == ["eth01"]
    assert engine.pick_spread(qemus, cluster44.ib_nodes(), exclude={"ib01"}) == [
        "ib02", "ib03",
    ]


def test_reservations_hide_capacity(cluster44):
    _, qemus = _vms(cluster44, ["ib01"])
    store = FleetStateStore(cluster44)
    engine = PlacementEngine(cluster44, store)
    node = cluster44.node("eth01")
    store.reserve("eth01", int(store.available_bytes(node)), owner="other")
    assert engine.pick_packed(qemus, cluster44.eth_only_nodes()) == ["eth02"]


def test_hca_reservation_blocks_attach_placement(cluster44):
    _, qemus = _vms(cluster44, ["eth01"])
    store = FleetStateStore(cluster44)
    engine = PlacementEngine(cluster44, store)
    store.reserve("ib01", 1 * GiB, owner="other", hca=True)
    hosts = engine.pick_spread(qemus, cluster44.ib_nodes(), need_hca=True)
    assert hosts == ["ib02"]


def test_plan_claims_hide_capacity_from_other_planners(cluster44):
    store = FleetStateStore(cluster44)
    engine_a = PlacementEngine(cluster44, store)
    engine_b = PlacementEngine(cluster44, store)
    _, qemus_a = _vms(cluster44, ["ib01"], prefix="a")
    _, qemus_b = _vms(cluster44, ["ib02"], prefix="b")
    # Leave exactly one VM slot on eth01 so the two plans *must* contend.
    node = cluster44.node("eth01")
    store.reserve("eth01", int(store.available_bytes(node)) - 4 * GiB, owner="hog")
    hosts_a = engine_a.pick_packed(qemus_a, cluster44.eth_only_nodes(), consolidate_to=1)
    assert hosts_a == ["eth01"]
    plan_a = MigrationPlan.build(cluster44, qemus_a, hosts_a, attach_ib=False)
    store.claim_plan(plan_a, owner=plan_a)
    # The second planner sees the first one's claim and picks elsewhere.
    hosts_b = engine_b.pick_packed(qemus_b, cluster44.eth_only_nodes(), consolidate_to=1)
    assert hosts_b == ["eth02"]
    store.claim_plan(MigrationPlan.build(cluster44, qemus_b, hosts_b, attach_ib=False))
    assert store.reserved_bytes("eth02") == 4 * GiB
    store.release_owner(plan_a)
    assert store.available_bytes(node) == 4 * GiB


def test_orchestrator_releases_claim_after_run(cluster44):
    orch = FleetOrchestrator(cluster44)
    job, qemus = _vms(cluster44, ["ib01"])

    def busy(proc, comm):
        for _ in range(100_000):
            yield proc.vm.compute(0.2, nthreads=1)
            yield from comm.barrier()

    job.launch(busy)
    orch.register_job("j0", job, qemus)
    store = orch.store

    def run(env):
        request = orch.submit("j0", kind="fallback")
        yield env.timeout(1.0)  # the sequence is mid-flight
        assert request.status == "running"
        (dst,) = [h for h in ("eth01", "eth02", "eth03", "eth04")
                  if store.reserved_bytes(h)]
        assert store.reserved_bytes(dst) == 4 * GiB
        yield request.done
        return request, dst

    request, dst = drive(cluster44.env, run(cluster44.env), name="mig")
    assert request.status == "completed"
    assert store.reserved_bytes(dst) == 0
    assert qemus[0].node.name == dst


def test_scheduler_without_store_matches_seed_behaviour(cluster44):
    scheduler = CloudScheduler(cluster44)
    _, qemus = _vms(cluster44, ["ib01", "ib02"])
    assert scheduler.pick_fallback_hosts(qemus) == ["eth01", "eth02"]
    assert scheduler.pick_recovery_hosts(qemus) == ["ib01", "ib02"]
    with pytest.raises(SchedulerError):
        scheduler.pick_fallback_hosts([])
