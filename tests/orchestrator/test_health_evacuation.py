"""Heartbeat loss → phi-accrual suspicion → host-failure incident → evacuation.

Coverage for the full detection-to-action chain: a node that stops
heartbeating is scored by the :class:`HeartbeatMonitor`, the incident
probe samples its phi onto the telemetry bus, the phi-spike detector
alerts, and the ``host-failure`` runbook evacuates the node's VMs."""

from repro.incident.manager import IncidentManager
from repro.network.degradation import DegradationEvent, NetworkChaos
from repro.orchestrator.executor import FleetOrchestrator
from repro.recovery.failure_detector import HeartbeatMonitor
from repro.testbed import busy_rank, create_job, provision_vms
from repro.units import GiB
from tests.conftest import drive


def _register(orch, cluster, job_id, hosts):
    qemus = provision_vms(cluster, hosts, memory_bytes=1 * GiB)
    job = create_job(cluster, qemus, procs_per_vm=1)
    drive(cluster.env, job.init(), name=f"init.{job_id}")
    job.launch(busy_rank)
    orch.register_job(job_id, job, qemus)
    return qemus


def _watched(cluster):
    orch = FleetOrchestrator(cluster)
    monitor = HeartbeatMonitor(cluster)
    manager = IncidentManager(cluster, orch, heartbeats=monitor).start()
    return orch, monitor, manager


def test_heartbeat_loss_triggers_evacuation(cluster44):
    env = cluster44.env
    orch, monitor, manager = _watched(cluster44)
    qemus = _register(orch, cluster44, "j0", ["ib01"])

    # ib01 beats 20 times then goes silent; everyone else stays chatty.
    for name in cluster44.nodes:
        count = 20 if name == "ib01" else 10**9
        env.process(
            monitor.emit_heartbeats(name, period_s=1.0, count=count),
            name=f"hb.{name}",
        )

    def experiment():
        yield env.timeout(60.0)
        yield orch.all_settled()

    drive(env, experiment(), name="exp")

    evacuations = [r for r in orch.requests if r.kind == "evacuate"]
    assert len(evacuations) == 1
    assert evacuations[0].status == "completed"
    assert evacuations[0].priority == orch.config.evacuation_priority
    [incident] = manager.incidents
    assert incident.klass == "host-failure"
    assert evacuations[0].incident_id == incident.incident_id
    assert qemus[0].node.name != "ib01"
    # Only the silent node was ever suspected.
    env.run(until=env.now + 120.0)
    assert [a.key for a in manager.alerts] == ["ib01"]


def test_evacuation_chain_survives_active_chaos(cluster44):
    """The full chain — thinning heartbeats, then silence, then a phi
    spike, then evacuation — while chaos degrades the very links the
    evacuation must cross.  The degraded network slows the move; it must
    not break the chain or smear suspicion onto chatty-but-degraded
    nodes."""
    env = cluster44.env
    orch, monitor, manager = _watched(cluster44)
    qemus = _register(orch, cluster44, "j0", ["ib01"])

    chaos = NetworkChaos(
        cluster44,
        events=[
            DegradationEvent(at_time=5.0, kind="bw", value=0.5,
                             duration_s=300.0, link_pattern="eth01--*"),
            DegradationEvent(at_time=5.0, kind="loss", value=0.1,
                             duration_s=300.0, link_pattern="eth02--*"),
        ],
    )
    chaos.start()

    def flaky_then_dead():
        for _ in range(10):
            monitor.beat("ib01")
            yield env.timeout(1.0)
        for _ in range(5):  # partial delivery: only every third beat lands
            monitor.beat("ib01")
            yield env.timeout(3.0)
        # then silence — the node is gone

    env.process(flaky_then_dead(), name="hb.ib01")
    for name in cluster44.nodes:
        if name != "ib01":
            env.process(monitor.emit_heartbeats(name, period_s=1.0),
                        name=f"hb.{name}")

    def experiment():
        yield env.timeout(120.0)
        yield orch.all_settled()

    drive(env, experiment(), name="exp")

    evacuations = [r for r in orch.requests if r.kind == "evacuate"]
    assert len(evacuations) == 1
    assert evacuations[0].status == "completed"
    assert evacuations[0].incident_id is not None
    assert qemus[0].node.name != "ib01"
    # Degraded-but-chatty nodes were never suspected: chaos on the data
    # plane must not leak into the failure detector.  (The injected loss
    # rightly raises a link alert keyed on the link, not on a host.)
    phi_alerts = [a for a in manager.alerts if a.kind == "phi-spike"]
    assert [a.key for a in phi_alerts] == ["ib01"]


def test_healthy_fleet_never_evacuates(cluster44):
    env = cluster44.env
    orch, monitor, manager = _watched(cluster44)
    _register(orch, cluster44, "j0", ["ib01"])
    for name in cluster44.nodes:
        env.process(monitor.emit_heartbeats(name, period_s=1.0), name=f"hb.{name}")
    env.run(until=90.0)
    assert orch.requests == []
    assert manager.alerts == []
    assert manager.incidents == []
