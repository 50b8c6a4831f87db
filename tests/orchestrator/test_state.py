"""Fleet state store: reservations, claims, invariants."""

import pytest

from repro.core.plan import MigrationPlan
from repro.errors import FleetError
from repro.invariants import check
from repro.orchestrator.state import FleetStateStore
from repro.testbed import create_job, provision_vms
from repro.units import GiB

from tests.conftest import drive


@pytest.fixture
def store(cluster44):
    return FleetStateStore(cluster44)


def _job(cluster, hosts, prefix):
    qemus = provision_vms(cluster, hosts, memory_bytes=4 * GiB, name_prefix=prefix)
    job = create_job(cluster, qemus)
    drive(cluster.env, job.init(), name=f"init.{prefix}")
    return job, qemus


def test_reserve_and_release_roundtrip(cluster44, store):
    node = cluster44.node("eth01")
    before = store.available_bytes(node)
    res = store.reserve("eth01", 4 * GiB, owner="me")
    assert store.available_bytes(node) == before - 4 * GiB
    assert store.reserved_bytes("eth01") == 4 * GiB
    store.release(res)
    assert store.available_bytes(node) == before
    with pytest.raises(FleetError):
        store.release(res)  # double release


def test_reserve_rejects_oversubscription(cluster44, store):
    node = cluster44.node("eth01")
    free = int(store.available_bytes(node))
    store.reserve("eth01", free - GiB, owner="a")
    with pytest.raises(FleetError):
        store.reserve("eth01", 2 * GiB, owner="b")
    assert check(cluster44, store=store) == []


def test_hca_single_booking(store):
    store.reserve("ib01", 1 * GiB, owner="a", hca=True)
    assert store.hca_reserved("ib01")
    with pytest.raises(FleetError):
        store.reserve("ib01", 1 * GiB, owner="b", hca=True)
    # Plain RAM claims on the same host still work.
    store.reserve("ib01", 1 * GiB, owner="c")


def test_release_owner_drops_all_claims(store):
    store.reserve("eth01", GiB, owner="me")
    store.reserve("eth02", GiB, owner="me")
    store.reserve("eth03", GiB, owner="other")
    assert store.release_owner("me") == 2
    assert store.reserved_bytes("eth01") == 0
    assert store.reserved_bytes("eth03") == GiB


def test_move_is_atomic(cluster44, store):
    res = store.reserve("eth01", 4 * GiB, owner="me")
    node2 = cluster44.node("eth02")
    store.reserve("eth02", int(store.available_bytes(node2)), owner="filler")
    with pytest.raises(FleetError):
        store.move(res, "eth02")  # no room on the target
    # The original claim survived the failed move.
    assert store.reserved_bytes("eth01") == 4 * GiB


def test_claim_plan_reserves_each_destination(cluster44, store):
    job, qemus = _job(cluster44, ["ib01", "ib02"], "j0")
    plan = MigrationPlan.build(cluster44, qemus, ["eth01", "eth02"], attach_ib=False)
    claims = store.claim_plan(plan, owner="req")
    assert len(claims) == 2
    assert store.reserved_bytes("eth01") == 4 * GiB
    assert store.reserved_bytes("eth02") == 4 * GiB
    store.release_owner("req")
    assert store.total_released == store.total_reserved


def test_claim_plan_rolls_back_on_partial_failure(cluster44, store):
    job, qemus = _job(cluster44, ["ib01", "ib02"], "j0")
    node2 = cluster44.node("eth02")
    store.reserve("eth02", int(store.available_bytes(node2)), owner="filler")
    plan = MigrationPlan.build(cluster44, qemus, ["eth01", "eth02"], attach_ib=False)
    with pytest.raises(FleetError):
        store.claim_plan(plan, owner="req")
    # The eth01 claim made before the failure was rolled back.
    assert store.reserved_bytes("eth01") == 0


def test_register_job_and_jobs_on(cluster44, store):
    job, qemus = _job(cluster44, ["ib01", "ib02"], "j0")
    record = store.register_job("j0", job, qemus, tenant="acme")
    assert record.hosts() == ["ib01", "ib02"]
    assert store.jobs_on("ib01") == [record]
    assert store.jobs_on("eth01") == []
    with pytest.raises(FleetError):
        store.register_job("j0", job, qemus)  # duplicate id
    with pytest.raises(FleetError):
        store.job("nope")
