"""Fleet orchestrator end-to-end: completion, retry, evacuation, failure."""

import math

from repro.incident.manager import IncidentManager
from repro.incident.runbook import EVACUATION_PRIORITY
from repro.incident.telemetry import HOST_PHI, TelemetrySample
from repro.orchestrator import FleetOrchestrator
from repro.orchestrator.admission import MAX_ATTEMPTS
from repro.testbed import busy_rank, create_job, provision_vms
from repro.units import GiB, MiB
from repro.vmm.guest_memory import PageClass

from tests.conftest import assert_safe, drive


def _register(orch, cluster, job_id, hosts, data=32 * MiB):
    qemus = provision_vms(cluster, hosts, memory_bytes=4 * GiB, name_prefix=job_id)
    job = create_job(cluster, qemus)
    drive(cluster.env, job.init(), name=f"init.{job_id}")
    for q in qemus:
        q.vm.memory.write(0, data, PageClass.DATA)
    job.launch(busy_rank)
    orch.register_job(job_id, job, qemus)
    return qemus


def _settle(orch, request=None):
    env = orch.env

    def waiter():
        if request is not None:
            yield request.done
        yield orch.all_settled()

    drive(env, waiter(), name="waiter")


def test_single_fallback_completes(cluster44):
    orch = FleetOrchestrator(cluster44)
    qemus = _register(orch, cluster44, "j0", ["ib01", "ib02"])
    request = orch.submit("j0", kind="fallback")
    _settle(orch, request)
    assert request.status == "completed"
    assert sorted(q.node.name for q in qemus) == ["eth01", "eth02"]
    # All reservations were returned.
    assert orch.store.total_released == orch.store.total_reserved
    assert not orch.store.inflight


def test_abort_blacklists_and_retries_elsewhere(cluster44):
    orch = FleetOrchestrator(cluster44)
    qemus = _register(orch, cluster44, "j0", ["ib01"])
    # First migration attempt dies with a non-transient fault → rollback.
    cluster44.faults.arm("ninja.migration", nth=1)
    request = orch.submit("j0", kind="fallback")
    _settle(orch, request)
    assert request.status == "completed"
    assert request.attempts == 2
    assert "eth01" in request.blacklist
    assert qemus[0].node.name == "eth02"


def test_retries_exhausted_leaves_job_at_origin(cluster44):
    orch = FleetOrchestrator(cluster44)
    qemus = _register(orch, cluster44, "j0", ["ib01"])
    # Every attempt fails: one armed fault per attempt the request gets.
    for _ in range(MAX_ATTEMPTS):
        cluster44.faults.arm("ninja.migration", nth=1)
    request = orch.submit("j0", kind="fallback")
    _settle(orch, request)
    assert request.status == "aborted"
    assert request.attempts == MAX_ATTEMPTS
    # Rolled back cleanly: the VM still runs at its origin.
    assert qemus[0].node.name == "ib01"
    assert orch.store.total_released == orch.store.total_reserved


def test_health_warning_enqueues_evacuation(cluster44):
    """An operator warning is one infinite-phi telemetry sample: the
    host-failure runbook submits a single evacuation for the node's job."""
    orch = FleetOrchestrator(cluster44)
    manager = IncidentManager(cluster44, orch).start()
    qemus = _register(orch, cluster44, "j0", ["ib01"])
    env = cluster44.env

    def warn(reason):
        manager.bus.publish(
            TelemetrySample(env.now, HOST_PHI, "ib01", math.inf, {"reason": reason})
        )

    def experiment():
        yield env.timeout(1.0)
        warn("ecc-errors")
        yield env.timeout(1.0)
        warn("again")  # while the evacuation is in flight
        yield orch.all_settled()

    drive(env, experiment(), name="exp")
    [incident] = manager.incidents
    assert incident.klass == "host-failure"
    [request] = orch.requests
    assert request.kind == "evacuate"
    assert request.priority == EVACUATION_PRIORITY
    assert request.incident_id == incident.incident_id
    assert request.status == "completed"
    assert qemus[0].node.name != "ib01"
    # Warning again once the node is empty adds no second request.
    warn("still-rising")
    env.run(until=env.now + 10.0)
    assert len(orch.requests) == 1


def test_infeasible_request_fails_instead_of_hanging(cluster44):
    orch = FleetOrchestrator(cluster44)
    qemus = _register(orch, cluster44, "j0", ["ib01"])
    for name in ("eth01", "eth02", "eth03", "eth04"):
        node = cluster44.node(name)
        orch.store.reserve(name, int(orch.store.available_bytes(node)), owner="hog")
    request = orch.submit("j0", kind="fallback")
    _settle(orch, request)
    # The hog's claims stay on purpose: audit the store without a journal.
    assert_safe(cluster44, qemus=qemus, store=orch.store, hosts={"j01": "ib01"})
    assert request.status == "failed"
    assert "no feasible placement" in request.error


def test_spread_request_uses_explicit_hosts(cluster44):
    orch = FleetOrchestrator(cluster44)
    qemus = _register(orch, cluster44, "j0", ["ib01", "ib02"])
    request = orch.submit("j0", kind="spread", dst_hosts=["eth03", "eth04"])
    _settle(orch, request)
    assert request.status == "completed"
    assert sorted(q.node.name for q in qemus) == ["eth03", "eth04"]


def test_recovery_lands_back_on_ib_with_attach(cluster44):
    orch = FleetOrchestrator(cluster44)
    qemus = _register(orch, cluster44, "j0", ["ib01"])
    fallback = orch.submit("j0", kind="fallback")
    _settle(orch, fallback)
    assert qemus[0].node.name == "eth01"
    recovery = orch.submit("j0", kind="recovery")
    _settle(orch, recovery)
    assert recovery.status == "completed"
    assert qemus[0].node.name in cluster44.ib_cabled
    assert qemus[0].node.has_bypass_fabric
    # The HCA it runs on is the new host's, with a bound guest driver.
    orch.env.run(until=orch.env.now + 90.0)
    assert_safe(
        cluster44, orch.journal, qemus=qemus, store=orch.store, arbiter=orch.arbiter
    )
