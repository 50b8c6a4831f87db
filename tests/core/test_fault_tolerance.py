"""Proactive and reactive fault tolerance (paper §II-A) through the
incident pipeline.

A predicted failure arrives as an operator warning — one infinite-phi
``host.phi`` sample — and the ``host-failure`` runbook evacuates the
node's job.  An unannounced failure arrives as heartbeat silence and the
same runbook falls through to restore-from-checkpoint.  Every reaction is
submitted by the journaled runbook; when it cannot finish, the incident
manager traces ``remediation_failed`` and the job stays where it was.
(Checkpoint restore itself is covered by ``tests/incident/test_host_failure.py``.)
"""

import math

from repro.hardware.cluster import build_agc_cluster
from repro.incident.manager import IncidentManager
from repro.incident.telemetry import HOST_PHI, TelemetrySample
from repro.orchestrator import FleetOrchestrator
from repro.recovery.failure_detector import HeartbeatMonitor
from repro.testbed import busy_rank, create_job, provision_vms
from repro.units import GiB
from repro.vmm.vm import RunState
from tests.conftest import drive


def _setup(ib=2, eth=4, heartbeats=False):
    cluster = build_agc_cluster(ib_nodes=ib, eth_nodes=eth)
    hosts = [f"ib{i+1:02d}" for i in range(ib)]
    vms = provision_vms(cluster, hosts, memory_bytes=4 * GiB)
    job = create_job(cluster, vms, procs_per_vm=1)
    drive(cluster.env, job.init(), name="init")
    job.launch(busy_rank)
    orch = FleetOrchestrator(cluster)
    orch.register_job("j0", job, vms)
    monitor = None
    if heartbeats:
        monitor = HeartbeatMonitor(cluster)
        for name in cluster.nodes:
            cluster.env.process(
                monitor.emit_heartbeats(name, period_s=1.0), name=f"hb.{name}"
            )
    manager = IncidentManager(cluster, orch, heartbeats=monitor).start()
    return cluster, vms, job, orch, manager


def _warn_at(cluster, manager, at_time, node, reason):
    def fire():
        yield cluster.env.timeout(at_time - cluster.env.now)
        manager.bus.publish(
            TelemetrySample(cluster.env.now, HOST_PHI, node, math.inf,
                            {"reason": reason})
        )

    cluster.env.process(fire(), name=f"warn.{node}")


def _remediation_errors(cluster):
    return [
        str(r.fields["error"])
        for r in cluster.tracer.select("incident", "remediation_failed")
    ]


# -- proactive: evacuate on a warning ---------------------------------------------


def test_warning_triggers_automatic_evacuation():
    cluster, vms, job, orch, manager = _setup()
    _warn_at(cluster, manager, 10.0, "ib01", "thermal")
    cluster.env.run(until=250.0)
    [request] = orch.requests
    assert request.kind == "evacuate" and request.status == "completed"
    assert request.incident_id == manager.incidents[0].incident_id
    assert manager.settled
    # Every VM of the job left the degraded node (whole-job evacuation).
    assert all(q.node.name != "ib01" for q in vms)
    # Job survived.
    assert job.live_ranks == job.size


def test_evacuation_requires_capacity():
    cluster, vms, job, orch, manager = _setup(ib=2, eth=0)
    # Only the two IB nodes exist and one is degraded: nowhere to go.
    _warn_at(cluster, manager, 5.0, "ib01", "ecc-errors")
    cluster.env.run(until=50.0)
    [error] = _remediation_errors(cluster)
    assert "evacuation failed" in error
    assert all(r.kind == "evacuate" and r.status == "failed" for r in orch.requests)
    assert "no feasible placement" in orch.requests[0].error
    assert not manager.settled
    # The job was left where it was, still running.
    assert [q.node.name for q in vms] == ["ib01", "ib02"]
    assert job.live_ranks == job.size


# -- reactive: restore after an unannounced failure -------------------------------


def test_failure_without_checkpoint_reports_loss():
    cluster, vms, job, orch, manager = _setup(heartbeats=True)

    def kill():
        yield cluster.env.timeout(5.0)
        cluster.fail_host("ib01")

    cluster.env.process(kill(), name="kill")
    cluster.env.run(until=60.0)
    assert manager.incidents[0].klass == "host-failure"
    [error] = _remediation_errors(cluster)
    assert "no checkpoint service" in error
    # Nothing was restored or moved: the job stays where it died.
    assert orch.requests == []
    assert [q.node.name for q in vms] == ["ib01", "ib02"]
    assert vms[0].vm.state is RunState.SHUTOFF
    assert not any(r.kind == "restore-commit" for r in orch.journal.records)
