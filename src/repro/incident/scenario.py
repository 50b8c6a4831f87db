"""The fiber-cut drill behind ``repro incident`` and BENCH_incident.json.

Same two-site estate as the fleet scenario — IB blades draining onto an
Ethernet estate whose far half sits behind a thin WAN pipe — plus a few
*spare* hosts in the primary enclosure (evacuation headroom), a
heartbeat mesh sampled by the incident telemetry probe, and the full
incident-response stack.  ``cut_at_s`` seconds into the drain the WAN
fiber goes dark for ``heal_after_s`` seconds, killing whatever migration
is mid-flight over it.

With ``autonomous=True`` the :class:`~repro.incident.manager.IncidentManager`
must detect the cut from telemetry, classify it ``fiber-cut``, and run
the runbook: blacklist the severed links, switch retried sequences to
postcopy-fallback, raise the viability floor, evacuate the stranded jobs
around the cut, wait for the heal, and re-admit — with zero lost VMs.
``autonomous=False`` is the baseline: same cut, diagnosis only, and the
jobs whose destinations died stay failed.

``crash_during_remediation=True`` additionally kills the controller at
the evacuation step (after the journal intent, before the action); the
driver then builds a *successor* manager over the same journal and
:meth:`~repro.incident.manager.IncidentManager.resume` must finish the
runbook without double-executing any committed step.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.errors import ControllerCrashError
from repro.hardware.cluster import Cluster
from repro.incident.correlator import RESOLVED, Incident
from repro.incident.manager import IncidentManager
from repro.incident.runbook import (
    DEFAULT_RUNBOOK,
    RESTORE_BOOT_SITE,
    RunbookStep,
)
from repro.network.degradation import DegradationEvent, NetworkChaos
from repro.orchestrator.executor import FleetConfig, FleetOrchestrator
from repro.orchestrator.scenario import _busy, _provision_fleet
from repro.recovery.checkpoints import FleetCheckpointService
from repro.recovery.failure_detector import HeartbeatMonitor
from repro.sim.trace import Tracer
from repro.storage.nfs import NfsServer
from repro.units import gbps
from repro.vmm.vm import RunState

#: Crash-injection site used by ``crash_during_remediation`` (the
#: evacuation is the long-running, most-interruptible runbook step).
CRASH_SITE = "incident.action.evacuate-affected"

#: Default crash site for ``crash_during_restore``: after the restore
#: intent is journaled, before the replacement VMs boot.
RESTORE_CRASH_SITE = RESTORE_BOOT_SITE


@dataclass
class IncidentScenarioResult:
    """Everything ``repro incident`` prints and BENCH_incident.json records."""

    jobs: int
    vms_per_job: int
    autonomous: bool
    cut_at_s: float
    heal_after_s: float
    #: Diagnosis: the classified incidents (``Incident.to_dict`` payloads).
    incidents: List[Dict[str, object]] = field(default_factory=list)
    incident_class: str = ""
    mttd_s: Optional[float] = None
    mttr_s: Optional[float] = None
    alerts: int = 0
    all_resolved: bool = False
    #: Request outcomes (spread drain + evacuations + retries).
    completed: int = 0
    aborted: int = 0
    failed: int = 0
    cancelled: int = 0
    evacuated_jobs: List[str] = field(default_factory=list)
    outcomes: List[Dict[str, object]] = field(default_factory=list)
    #: VMs left parked (lost) at the end — the headline must be empty.
    lost_vms: List[str] = field(default_factory=list)
    actions: List[str] = field(default_factory=list)
    #: Crash drill bookkeeping.
    crash_injected: bool = False
    crashed: bool = False
    resumed_incidents: int = 0
    #: (incident, step, action) triples executed more than once across
    #: the dead and successor controllers — must stay empty.
    double_executed: List[List[object]] = field(default_factory=list)
    makespan_s: float = 0.0
    final_hosts: Dict[str, List[str]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def build_incident_cluster(
    nvms: int,
    spares: int = 2,
    wan_gbps: float = 1.0,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
) -> Cluster:
    """The fleet-scenario estate plus ``spares`` empty primary-site hosts.

    The spares (``sp01``…) give the runbook somewhere local to evacuate
    to while the WAN — and with it half the Ethernet estate — is dark.
    """
    if nvms < 2:
        raise ValueError("incident scenario needs at least 2 VMs")
    cluster = Cluster(seed=seed, tracer=tracer)
    ib_names = [f"ib{i + 1:02d}" for i in range(nvms)]
    eth_names = [f"eth{i + 1:02d}" for i in range(nvms)]
    spare_names = [f"sp{i + 1:02d}" for i in range(spares)]
    local_eth = eth_names[: (nvms + 1) // 2]
    remote_eth = eth_names[(nvms + 1) // 2:]
    for name in ib_names + eth_names + spare_names:
        cluster.add_node(name)
    cluster.wire_ethernet(
        sites={
            "primary": ib_names + local_eth + spare_names,
            "backup": remote_eth,
        },
        wan_bandwidth_Bps=gbps(wan_gbps),
        wan_latency_s=5e-3,
    )
    cluster.wire_infiniband(ib_names)
    return cluster


def _heartbeat_mesh(cluster: Cluster, period_s: float) -> HeartbeatMonitor:
    """Every node beats every ``period_s``; the incident probe samples phi."""
    monitor = HeartbeatMonitor(cluster)
    for node in cluster.nodes:
        cluster.env.process(
            monitor.emit_heartbeats(node, period_s), name=f"heartbeat.{node}"
        )
    return monitor


def _all_incidents(managers: List[IncidentManager]) -> List[Incident]:
    """Incidents across a manager and its successors, by id.

    Latest manager wins: a successor's rebuilt incident supersedes the
    dead manager's (forever-REMEDIATING) copy of the same id.
    """
    by_id: Dict[int, Incident] = {}
    for m in managers:
        for incident in m.incidents:
            by_id[incident.incident_id] = incident
    return [by_id[iid] for iid in sorted(by_id)]


def run_incident_scenario(
    jobs: int = 4,
    vms_per_job: int = 1,
    spares: int = 2,
    cut_at_s: float = 6.0,
    heal_after_s: float = 120.0,
    autonomous: bool = True,
    crash_during_remediation: bool = False,
    wan_gbps: float = 1.0,
    tenants: int = 2,
    link_budget_s: Optional[float] = 30.0,
    heartbeat_period_s: float = 0.5,
    probe_period_s: float = 0.25,
    max_runtime_s: float = 900.0,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
    manager_out: Optional[list] = None,
    orchestrator_out: Optional[list] = None,
) -> IncidentScenarioResult:
    """Drain the fleet, cut the WAN fiber mid-drain, and report how the
    incident-response stack (or its absence) handled it.

    ``manager_out``/``orchestrator_out``, when given, receive the live
    :class:`IncidentManager` objects (dead then successor, in order) and
    the :class:`FleetOrchestrator` for tests that inspect internals.
    """
    nvms = jobs * vms_per_job
    cluster = build_incident_cluster(
        nvms, spares=spares, wan_gbps=wan_gbps, seed=seed, tracer=tracer
    )
    env = cluster.env
    if crash_during_remediation:
        cluster.faults.arm(
            CRASH_SITE,
            error=ControllerCrashError("injected crash mid-remediation"),
        )

    config = FleetConfig(link_budget_s=link_budget_s)
    orch = FleetOrchestrator(cluster, config=config)
    if orchestrator_out is not None:
        orchestrator_out.append(orch)

    records = _provision_fleet(cluster, jobs, vms_per_job, tenants)
    for job_id, tenant, job, qemus, _ in records:
        orch.register_job(job_id, job, qemus, tenant=tenant)

    monitor = _heartbeat_mesh(cluster, heartbeat_period_s)
    manager = IncidentManager(
        cluster,
        orch,
        heartbeats=monitor,
        probe_period_s=probe_period_s,
        autonomous=autonomous,
    )
    manager.start()  # pre-cut samples let EWMA baselines learn "healthy"
    managers = [manager]
    if manager_out is not None:
        manager_out.append(manager)

    chaos = NetworkChaos(
        cluster,
        [
            DegradationEvent(
                at_time=cut_at_s,
                kind="drop",
                duration_s=heal_after_s,
                link_pattern="wan:*",
            )
        ],
    )

    start_at = env.now + 1.0

    def _submit_all():
        yield env.timeout(start_at - env.now)
        # The chaos clock starts with the drain: the fiber dies
        # ``cut_at_s`` seconds into the migration traffic.
        chaos.start()
        for job_id, _, _, _, dst_hosts in records:
            orch.submit(job_id, kind="spread", dst_hosts=dst_hosts)

    env.process(_submit_all(), name="incident.submit")
    env.run(until=start_at + 0.001)

    def _done() -> bool:
        if not all(r.terminal for r in orch.requests):
            return False
        if crash_during_remediation and not manager.crashed:
            return False  # the armed crash has not fired yet
        incidents = _all_incidents(managers)
        if autonomous:
            # Converged once the cut was diagnosed and fully remediated.
            return bool(incidents) and all(
                i.status == RESOLVED for i in incidents
            )
        # Diagnosis-only baseline: give detection time to open the
        # incident after the last request settles.
        return bool(incidents) and env.now >= start_at + cut_at_s + 5.0

    deadline = start_at + max_runtime_s
    resumed_count = 0
    while env.now < deadline and not _done():
        if (
            crash_during_remediation
            and manager.crashed
            and len(managers) == 1
        ):
            # The dead controller stops observing; a successor rebuilds
            # the incident from the journal and finishes the runbook.
            manager.stop()
            successor = IncidentManager(
                cluster,
                orch,
                heartbeats=monitor,
                probe_period_s=probe_period_s,
                autonomous=True,
            )
            successor.start()
            resumed_count = len(successor.resume())
            managers.append(successor)
            if manager_out is not None:
                manager_out.append(successor)
        env.run(until=env.now + 0.5)

    unique_incidents = _all_incidents(managers)

    executed: List[tuple] = []
    for m in managers:
        executed.extend(m.executor.executed)
    doubles = sorted(
        {item for item in executed if executed.count(item) > 1}
    )

    primary = unique_incidents[0] if unique_incidents else None
    statuses = [r.status for r in orch.requests]
    all_qemus = [q for _, _, _, qemus, _ in records for q in qemus]
    return IncidentScenarioResult(
        jobs=jobs,
        vms_per_job=vms_per_job,
        autonomous=autonomous,
        cut_at_s=cut_at_s,
        heal_after_s=heal_after_s,
        incidents=[i.to_dict() for i in unique_incidents],
        incident_class=primary.klass if primary is not None else "",
        mttd_s=round(primary.mttd_s, 4) if primary is not None else None,
        mttr_s=(
            round(primary.mttr_s, 4)
            if primary is not None and primary.mttr_s is not None
            else None
        ),
        alerts=sum(len(m.alerts) for m in managers),
        all_resolved=bool(unique_incidents)
        and all(i.status == RESOLVED for i in unique_incidents),
        completed=statuses.count("completed"),
        aborted=statuses.count("aborted"),
        failed=statuses.count("failed"),
        cancelled=statuses.count("cancelled"),
        evacuated_jobs=sorted(
            {
                r.job_id
                for r in orch.requests
                if r.kind == "evacuate" and r.status == "completed"
            }
        ),
        outcomes=[
            {
                "request": r.request_id,
                "job": r.job_id,
                "kind": r.kind,
                "status": r.status,
                "attempts": r.attempts,
                "error": r.error,
            }
            for r in orch.requests
        ],
        lost_vms=sorted(
            q.vm.name for q in all_qemus if q.vm.hypercall.parked
        ),
        actions=list(primary.actions) if primary is not None else [],
        crash_injected=crash_during_remediation,
        crashed=manager.crashed,
        resumed_incidents=resumed_count,
        double_executed=[list(item) for item in doubles],
        makespan_s=round(env.now - start_at, 3),
        final_hosts={
            job_id: [q.node.name for q in qemus]
            for job_id, _, _, qemus, _ in records
        },
    )


# ---------------------------------------------------------------------------
# Host-failure drill (``repro incident --kill-host`` / BENCH_hostfail.json)
# ---------------------------------------------------------------------------


def _drill_runbook():
    """DEFAULT_RUNBOOK with restores pinned to the drill's spare hosts."""
    runbook = dict(DEFAULT_RUNBOOK)
    runbook["host-failure"] = (
        RunbookStep("evacuate-host", timeout_s=300.0, retries=1),
        RunbookStep(
            "restore-from-checkpoint", {"spare_pattern": "sp*"},
            timeout_s=600.0, retries=1, restores_service=True,
        ),
    )
    return runbook


@dataclass
class HostFailureScenarioResult:
    """Everything the host-failure drill prints and BENCH_hostfail.json
    records."""

    jobs: int
    vms_per_job: int
    autonomous: bool
    kill_host: str
    kill_at_s: float
    #: When the host actually died (``kill_after_commit`` can push the
    #: kill past ``kill_at_s``), relative to the drain start.
    killed_at_s: Optional[float] = None
    checkpoint_period_s: float = 0.0
    #: Fiber cut overlapping the host failure (None = host failure only).
    cut_at_s: Optional[float] = None
    incidents: List[Dict[str, object]] = field(default_factory=list)
    incident_classes: List[str] = field(default_factory=list)
    alerts: int = 0
    all_resolved: bool = False
    #: Proactive checkpointing accounting.
    generations_committed: int = 0
    checkpoint_skips: int = 0
    #: RPO of the worst restored job (failure instant back to the restored
    #: generation's consistency point) — must stay ≤ the checkpoint period.
    rpo_s: Optional[float] = None
    rpo_bound_s: float = 0.0
    #: First anomaly to restore commit of the slowest restored job.
    restore_rto_s: Optional[float] = None
    restored_jobs: List[str] = field(default_factory=list)
    #: Replacement VMs adopted (not re-booted) by a resumed restore.
    adopted_vms: List[str] = field(default_factory=list)
    #: VMs that died with the host at kill time.
    vms_lost_at_kill: List[str] = field(default_factory=list)
    #: VMs still dead/parked at the end — the headline must be empty.
    lost_vms: List[str] = field(default_factory=list)
    completed: int = 0
    aborted: int = 0
    failed: int = 0
    cancelled: int = 0
    #: Requests never settled (baseline: work stranded behind dead VMs).
    stranded: int = 0
    evacuated_jobs: List[str] = field(default_factory=list)
    crash_injected: bool = False
    crash_site: str = ""
    crashed: bool = False
    resumed_incidents: int = 0
    double_executed: List[List[object]] = field(default_factory=list)
    #: (incident, job) pairs with more than one restore-commit — the
    #: no-double-restore witness, must stay empty.
    double_restored: List[List[object]] = field(default_factory=list)
    #: Spare hosts ever leased to two incidents at once — must stay empty.
    spare_double_leases: List[List[object]] = field(default_factory=list)
    makespan_s: float = 0.0
    outcomes: List[Dict[str, object]] = field(default_factory=list)
    final_hosts: Dict[str, List[str]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def run_host_failure_scenario(
    jobs: int = 4,
    vms_per_job: int = 1,
    spares: int = 2,
    kill_at_s: float = 12.0,
    kill_host: Optional[str] = None,
    kill_after_commit: bool = True,
    checkpoint_period_s: float = 20.0,
    nfs_gbps: float = 40.0,
    cut_at_s: Optional[float] = None,
    heal_after_s: float = 120.0,
    autonomous: bool = True,
    crash_during_restore: bool = False,
    crash_site: str = RESTORE_CRASH_SITE,
    wan_gbps: float = 1.0,
    tenants: int = 2,
    link_budget_s: Optional[float] = 30.0,
    heartbeat_period_s: float = 0.5,
    probe_period_s: float = 0.25,
    max_runtime_s: float = 900.0,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
    manager_out: Optional[list] = None,
    orchestrator_out: Optional[list] = None,
    service_out: Optional[list] = None,
) -> HostFailureScenarioResult:
    """Kill a host without warning mid-drain; report how proactive
    checkpointing + checkpoint-restore remediation handled it.

    The fleet checkpoint service snapshots every eligible job each
    ``checkpoint_period_s`` onto an NFS store with a dedicated
    ``nfs_gbps`` link.  ``kill_at_s`` seconds into the drain
    ``kill_host`` (default: the first job's landing host — that job
    drains fast and sits still while the WAN jobs are mid-flight) dies
    hard — no WARNING, no drain window — taking its VMs with it.  With
    ``kill_after_commit`` the kill additionally waits until the victim's
    jobs hold a committed checkpoint generation: the failure is still
    unannounced to the controller, the *drill* just arms it where the
    restore path (rather than the no-checkpoint error path) is
    exercised.  The incident stack must classify the heartbeat silence
    as ``host-failure``, fall through the (impossible) evacuation, and
    restore the dead jobs from their last committed checkpoint
    generation on spare capacity leased through the
    :class:`~repro.orchestrator.state.SpareArbiter`.

    ``cut_at_s`` additionally cuts the WAN fiber (a second incident whose
    evacuations compete for the same spares); ``crash_during_restore``
    kills the controller at ``crash_site`` and a successor must resume to
    the same outcome without double-restoring.
    """
    nvms = jobs * vms_per_job
    cluster = build_incident_cluster(
        nvms, spares=spares, wan_gbps=wan_gbps, seed=seed, tracer=tracer
    )
    env = cluster.env
    if crash_during_restore:
        cluster.faults.arm(
            crash_site,
            error=ControllerCrashError(f"injected crash at {crash_site}"),
        )

    config = FleetConfig(link_budget_s=link_budget_s)
    orch = FleetOrchestrator(cluster, config=config)
    if orchestrator_out is not None:
        orchestrator_out.append(orch)
    # The checkpoint store hangs off the enclosure's converged fabric,
    # not the clients' 10 GbE links: a generation's write window must fit
    # well inside the checkpoint period.
    nfs = NfsServer(env, bandwidth_Bps=gbps(nfs_gbps) * 0.7)
    service = FleetCheckpointService(
        cluster, orch.store, nfs, orch.journal, period_s=checkpoint_period_s
    )
    services = [service]
    if service_out is not None:
        service_out.append(service)

    records = _provision_fleet(cluster, jobs, vms_per_job, tenants)
    for job_id, tenant, job, qemus, _ in records:
        # rank_main lets a checkpoint restore relaunch the SPMD program.
        orch.register_job(job_id, job, qemus, tenant=tenant, rank_main=_busy)

    monitor = _heartbeat_mesh(cluster, heartbeat_period_s)

    runbook = _drill_runbook()
    manager = IncidentManager(
        cluster,
        orch,
        heartbeats=monitor,
        probe_period_s=probe_period_s,
        autonomous=autonomous,
        checkpoints=service,
        runbook=runbook,
    )
    manager.start()
    managers = [manager]
    if manager_out is not None:
        manager_out.append(manager)
    service.start()

    chaos = None
    if cut_at_s is not None:
        chaos = NetworkChaos(
            cluster,
            [
                DegradationEvent(
                    at_time=cut_at_s,
                    kind="drop",
                    duration_s=heal_after_s,
                    link_pattern="wan:*",
                )
            ],
        )

    victim_ref: List[str] = []
    if kill_host is not None:
        cluster.node(kill_host)  # existence check before the drill starts
        victim_ref.append(kill_host)

    start_at = env.now + 1.0
    vms_lost_at_kill: List[str] = []
    killed_at: List[float] = []

    def _committed_jobs() -> set:
        return {
            r.payload.get("job")
            for r in orch.journal.records
            if r.kind == "checkpoint-commit"
        }

    def _victim_covered(host: str) -> bool:
        """Every job on ``host`` holds a committed generation."""
        on_victim = [r.job_id for r in orch.store.jobs_on(host)]
        return bool(on_victim) and set(on_victim) <= _committed_jobs()

    def _pick_victim() -> Optional[str]:
        """First landed job with a committed generation → its host.

        The orchestrator places spread drains by capacity, not by the
        naive destination list, so the victim cannot be named up front.
        Every job co-located on the candidate host must be covered too —
        the kill takes the whole host, not just the picked job.
        """
        committed = _committed_jobs()
        for job_id in sorted(orch.store.jobs):
            if job_id not in committed:
                continue
            record = orch.store.jobs[job_id]
            if record.busy:  # mid-migration: not a restore-path drill
                continue
            hosts = record.hosts()
            if not hosts or any(cluster.node(h).failed for h in hosts):
                continue
            host = hosts[0]
            if all(
                r.job_id in committed and not r.busy
                for r in orch.store.jobs_on(host)
            ):
                return host
        return None

    def _submit_all():
        yield env.timeout(start_at - env.now)
        if chaos is not None:
            chaos.start()
        for job_id, _, _, _, dst_hosts in records:
            orch.submit(job_id, kind="spread", dst_hosts=dst_hosts)

    def _kill():
        yield env.timeout(start_at + kill_at_s - env.now)
        if kill_after_commit:
            # Arm the failure only once the victim's jobs are coverable:
            # the drill measures the restore path, not the (separately
            # tested) no-checkpoint error path.  Give up at half the
            # runtime budget so a broken schedule still kills and fails
            # the run visibly instead of hanging.
            give_up = start_at + max_runtime_s / 2.0
            if victim_ref:
                while not _victim_covered(victim_ref[0]) and env.now < give_up:
                    yield env.timeout(0.5)
            else:
                while _pick_victim() is None and env.now < give_up:
                    yield env.timeout(0.5)
                picked = _pick_victim()
                victim_ref.append(picked if picked else records[0][4][0])
            yield env.timeout(1.0)
        elif not victim_ref:
            victim_ref.append(records[0][4][0])
        killed_at.append(env.now)
        vms_lost_at_kill.extend(cluster.fail_host(victim_ref[0]))

    env.process(_submit_all(), name="hostfail.submit")
    env.process(_kill(), name="hostfail.kill")
    env.run(until=start_at + 0.001)

    def _settled(request) -> bool:
        # The baseline has no restore path: a request stuck behind a dead
        # VM will never run; count it stranded instead of waiting it out.
        return request.terminal or (
            not autonomous and request.defer_reason == "vm-down"
        )

    def _done() -> bool:
        if not killed_at:
            return False
        if not all(_settled(r) for r in orch.requests):
            return False
        if crash_during_restore and not (
            any(m.crashed for m in managers)
            or any(s.crashed for s in services)
        ):
            return False  # the armed crash has not fired yet
        incidents = _all_incidents(managers)
        if not incidents:
            return False
        if autonomous:
            # An unrelated earlier incident (e.g. drain congestion) being
            # resolved must not end the drill before the heartbeat
            # silence is even detectable: require the victim's own
            # host-failure incident.
            victim = victim_ref[0]
            if not any(
                i.klass == "host-failure"
                and victim in (i.suspect_hosts | i.hosts)
                for i in incidents
            ):
                return False
            return all(i.status == RESOLVED for i in incidents)
        return env.now >= killed_at[0] + 15.0

    deadline = start_at + max_runtime_s
    resumed_count = 0
    while env.now < deadline and not _done():
        if manager.crashed and len(managers) == 1:
            # Controller succession: rebuild incidents from the journal
            # and finish the runbooks without double-restoring.
            manager.stop()
            successor = IncidentManager(
                cluster,
                orch,
                heartbeats=monitor,
                probe_period_s=probe_period_s,
                autonomous=True,
                checkpoints=services[-1],
                runbook=runbook,
            )
            successor.start()
            resumed_count = len(successor.resume())
            managers.append(successor)
            if manager_out is not None:
                manager_out.append(successor)
        if services[-1].crashed:
            # Checkpoint-service succession: a fresh service resumes the
            # generation numbering from the journal; the open intent of
            # the dead one never commits.
            dead = services[-1]
            dead.stop()
            successor_service = FleetCheckpointService(
                cluster, orch.store, nfs, orch.journal,
                period_s=checkpoint_period_s,
            )
            successor_service.start()
            services.append(successor_service)
            if service_out is not None:
                service_out.append(successor_service)
        env.run(until=env.now + 0.5)

    # Let an in-flight checkpoint tick finish before folding final VM
    # state: its parked VMs resume at tick end and must not read as lost.
    drain_until = env.now + 120.0
    while (
        any(rec.busy for rec in orch.store.jobs.values())
        and env.now < drain_until
    ):
        env.run(until=env.now + 0.5)
    # Sim time has not advanced since the busy check, so no new tick can
    # have started: stopping here never interrupts a parked fleet.
    for s in services:
        s.stop()

    unique_incidents = _all_incidents(managers)
    executed: List[tuple] = []
    for m in managers:
        executed.extend(m.executor.executed)
    doubles = sorted({item for item in executed if executed.count(item) > 1})

    restore_commits = [
        r.payload
        for r in orch.journal.records
        if r.kind == "restore-commit"
    ]
    commit_counts: Dict[tuple, int] = {}
    for payload in restore_commits:
        key = (payload.get("incident"), payload.get("job"))
        commit_counts[key] = commit_counts.get(key, 0) + 1
    # True RPO: the drill knows the exact failure instant; measure lost
    # work from there back to the restored generation's consistency
    # point.  (The journal's per-restore ``rpo_s`` is the controller's
    # conservative estimate from the first detected anomaly instead.)
    consistency_by_gen = {
        (r.payload.get("job"), r.payload.get("generation")):
            float(r.payload.get("consistency_at", 0.0))
        for r in orch.journal.records
        if r.kind == "checkpoint-commit"
    }
    rpos = []
    for payload in restore_commits:
        consistency = consistency_by_gen.get(
            (payload.get("job"), payload.get("generation"))
        )
        if consistency is not None and killed_at:
            rpos.append(max(killed_at[0] - consistency, 0.0))
        else:
            rpos.append(float(payload.get("rpo_s", 0.0)))
    rtos = [float(p.get("rto_s", 0.0)) for p in restore_commits]

    lost: List[str] = []
    for job_id in sorted(orch.store.jobs):
        for q in orch.store.jobs[job_id].qemus:
            if q.vm.state is RunState.SHUTOFF or (
                q.vm.hypercall is not None and q.vm.hypercall.parked
            ):
                lost.append(q.vm.name)

    statuses = [r.status for r in orch.requests]
    return HostFailureScenarioResult(
        jobs=jobs,
        vms_per_job=vms_per_job,
        autonomous=autonomous,
        kill_host=victim_ref[0] if victim_ref else "",
        kill_at_s=kill_at_s,
        killed_at_s=(
            round(killed_at[0] - start_at, 3) if killed_at else None
        ),
        checkpoint_period_s=checkpoint_period_s,
        cut_at_s=cut_at_s,
        incidents=[i.to_dict() for i in unique_incidents],
        incident_classes=sorted({i.klass for i in unique_incidents}),
        alerts=sum(len(m.alerts) for m in managers),
        all_resolved=bool(unique_incidents)
        and all(i.status == RESOLVED for i in unique_incidents),
        generations_committed=sum(
            1 for r in orch.journal.records if r.kind == "checkpoint-commit"
        ),
        checkpoint_skips=sum(len(s.skips) for s in services),
        rpo_s=round(max(rpos), 4) if rpos else None,
        rpo_bound_s=checkpoint_period_s,
        restore_rto_s=round(max(rtos), 4) if rtos else None,
        restored_jobs=sorted(
            {str(p.get("job")) for p in restore_commits}
        ),
        adopted_vms=sorted(
            {str(v) for p in restore_commits for v in p.get("adopted", ())}
        ),
        vms_lost_at_kill=sorted(vms_lost_at_kill),
        lost_vms=sorted(lost),
        completed=statuses.count("completed"),
        aborted=statuses.count("aborted"),
        failed=statuses.count("failed"),
        cancelled=statuses.count("cancelled"),
        stranded=sum(1 for r in orch.requests if not r.terminal),
        evacuated_jobs=sorted(
            {
                r.job_id
                for r in orch.requests
                if r.kind == "evacuate" and r.status == "completed"
            }
        ),
        crash_injected=crash_during_restore,
        crash_site=crash_site if crash_during_restore else "",
        crashed=any(m.crashed for m in managers)
        or any(s.crashed for s in services),
        resumed_incidents=resumed_count,
        double_executed=[list(item) for item in doubles],
        double_restored=sorted(
            [list(k) for k, v in commit_counts.items() if v > 1]
        ),
        spare_double_leases=[list(d) for d in orch.arbiter.double_leases],
        makespan_s=round(env.now - start_at, 3),
        outcomes=[
            {
                "request": r.request_id,
                "job": r.job_id,
                "kind": r.kind,
                "status": r.status,
                "attempts": r.attempts,
                "error": r.error,
            }
            for r in orch.requests
        ],
        final_hosts={
            job_id: [q.node.name for q in record.qemus]
            for job_id, record in sorted(orch.store.jobs.items())
        },
    )
