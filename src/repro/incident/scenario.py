"""One drill runner for the two-site estate: fiber cuts, host kills,
controller crashes — behind ``repro incident``, BENCH_incident.json and
BENCH_hostfail.json.

The estate is the fleet scenario's (IB blades draining onto an Ethernet
estate whose far half sits behind a thin WAN pipe) plus ``spares`` empty
primary-site hosts, a heartbeat mesh sampled by the incident telemetry
probe, and the full incident-response stack.  :func:`run_drill` injects
any mix of:

* a **fiber cut** — ``cut_at_s`` seconds into the drain the WAN fiber
  goes dark for ``heal_after_s`` seconds, killing whatever migration is
  mid-flight over it.  The runbook must blacklist the severed links,
  switch retried sequences to postcopy-fallback, raise the viability
  floor, evacuate the stranded jobs around the cut, wait for the heal,
  and re-admit — with zero lost VMs;
* a **host kill** — ``kill_at_s`` seconds into the drain ``kill_host``
  (default: the first landed host whose jobs all hold a committed
  checkpoint generation) dies hard, no warning, taking its VMs with it.
  The stack must classify the heartbeat silence ``host-failure``, fall
  through the impossible evacuation, and restore the dead jobs from
  their last committed generation on spares leased through the
  :class:`~repro.orchestrator.state.SpareArbiter`;
* **checkpointing** — a :class:`~repro.recovery.checkpoints.FleetCheckpointService`
  snapshots every eligible job each ``checkpoint_period_s`` onto NFS;
* a **controller crash** at ``crash_site``: the dead manager (or
  checkpoint service) hands over to a successor over the same journal,
  which must finish without double-executing a committed step or
  double-restoring a job.

``autonomous=False`` is the baseline: same faults, diagnosis only.

:func:`run_incident_scenario` (the fiber cut) and
:func:`run_host_failure_scenario` (the host kill with checkpointing) are
the two default presets.
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
from repro.invariants import Violation
from repro.network.degradation import DegradationEvent, NetworkChaos
from repro.orchestrator.executor import FleetConfig
from repro.orchestrator.scenario import Estate, build_estate
from repro.recovery.checkpoints import FleetCheckpointService
from repro.recovery.failure_detector import HeartbeatMonitor
from repro.sim.trace import Tracer
from repro.storage.nfs import NfsServer
from repro.units import gbps

#: Crash site of the fiber-cut crash drill (the evacuation is the
#: long-running, most-interruptible runbook step).
CRASH_SITE = "incident.action.evacuate-affected"

#: Crash site of the host-kill crash drill: after the restore intent is
#: journaled, before the replacement VMs boot.
RESTORE_CRASH_SITE = RESTORE_BOOT_SITE

#: Every node beats this often; the incident probe samples phi.
HEARTBEAT_PERIOD_S = 0.5
#: Telemetry probe sampling period.
PROBE_PERIOD_S = 0.25
#: Give up on convergence this long after the drain starts.
MAX_RUNTIME_S = 900.0
#: Arm a host kill only once the victim's jobs hold a committed
#: checkpoint generation: the failure is still unannounced to the
#: controller, the drill just measures the restore path rather than the
#: (separately tested) no-checkpoint error path.
KILL_AFTER_COMMIT = True
#: The checkpoint store hangs off the enclosure's converged fabric, not
#: the clients' 10 GbE links: a generation's write window must fit well
#: inside the checkpoint period.
NFS_GBPS = 40.0


@dataclass
class DrillResult:
    """Everything ``repro incident`` prints and BENCH_incident.json /
    BENCH_hostfail.json record."""

    jobs: int
    vms_per_job: int
    autonomous: bool
    #: Fault injection (None = not injected).
    cut_at_s: Optional[float] = None
    heal_after_s: float = 0.0
    kill_host: str = ""
    kill_at_s: Optional[float] = None
    #: When the host actually died (the coverage wait can push the kill
    #: past ``kill_at_s``), relative to the drain start.
    killed_at_s: Optional[float] = None
    checkpoint_period_s: Optional[float] = None
    #: Diagnosis: the classified incidents (``Incident.to_dict`` payloads).
    incidents: List[Dict[str, object]] = field(default_factory=list)
    #: Class, MTTD, MTTR and runbook actions of the first incident.
    incident_class: str = ""
    mttd_s: Optional[float] = None
    mttr_s: Optional[float] = None
    actions: List[str] = field(default_factory=list)
    incident_classes: List[str] = field(default_factory=list)
    alerts: int = 0
    all_resolved: bool = False
    #: Proactive checkpointing accounting.
    generations_committed: int = 0
    checkpoint_skips: int = 0
    #: RPO of the worst restored job (failure instant back to the restored
    #: generation's consistency point) — must stay ≤ the checkpoint period.
    rpo_s: Optional[float] = None
    rpo_bound_s: Optional[float] = None
    #: First anomaly to restore commit of the slowest restored job.
    restore_rto_s: Optional[float] = None
    restored_jobs: List[str] = field(default_factory=list)
    #: Replacement VMs adopted (not re-booted) by a resumed restore.
    adopted_vms: List[str] = field(default_factory=list)
    #: VMs that died with the host at kill time.
    vms_lost_at_kill: List[str] = field(default_factory=list)
    #: Request outcomes (spread drain + evacuations + retries).
    completed: int = 0
    aborted: int = 0
    failed: int = 0
    cancelled: int = 0
    #: Requests never settled (baseline: work stranded behind dead VMs).
    stranded: int = 0
    evacuated_jobs: List[str] = field(default_factory=list)
    outcomes: List[Dict[str, object]] = field(default_factory=list)
    #: VMs still dead or parked at the end — the headline must be empty.
    lost_vms: List[str] = field(default_factory=list)
    #: Crash drill bookkeeping.
    crash_injected: bool = False
    crash_site: str = ""
    crashed: bool = False
    resumed_incidents: int = 0
    #: (incident, step) runbook steps committed more than once across
    #: the dead and successor controllers — must stay empty.  This and
    #: the next two fields are :func:`repro.invariants.check` findings.
    double_executed: List[List[object]] = field(default_factory=list)
    #: (incident, job) pairs with more than one restore-commit — the
    #: no-double-restore witness, must stay empty.
    double_restored: List[List[object]] = field(default_factory=list)
    #: Spare hosts ever leased to two incidents at once — must stay empty.
    spare_double_leases: List[List[object]] = field(default_factory=list)
    makespan_s: float = 0.0
    final_hosts: Dict[str, List[str]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def crash_label(site: str) -> str:
    """How a drill names its armed crash: ``mid-remediation`` for
    :data:`CRASH_SITE`, ``at <site>`` otherwise."""
    return "mid-remediation" if site == CRASH_SITE else f"at {site}"


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
class _Kill:
    """The armed host kill: victim, instant, and the VMs it took down."""

    victim: Optional[str] = None
    at: Optional[float] = None
    vms: List[str] = field(default_factory=list)


def _spawn_kill(
    estate: Estate, kill: _Kill, kill_at_s: float, checkpointing: bool
) -> None:
    """Spawn the process that kills a host ``kill_at_s`` into the drain."""
    cluster, orch = estate.cluster, estate.orch
    env = cluster.env
    if kill.victim is not None:
        cluster.node(kill.victim)  # existence check before the drill starts

    def _committed_jobs() -> set:
        return {
            step.key[0]
            for step in orch.journal.steps_of("checkpoint")
            if step.commit is not None
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

    fallback_victim = estate.records[0][4][0]

    def _kill():
        yield env.timeout(estate.start_at + kill_at_s - env.now)
        if KILL_AFTER_COMMIT and checkpointing:
            # Give up at half the runtime budget so a broken schedule
            # still kills and fails the run visibly instead of hanging.
            give_up = estate.start_at + MAX_RUNTIME_S / 2.0
            if kill.victim is not None:
                while not _victim_covered(kill.victim) and env.now < give_up:
                    yield env.timeout(0.5)
            else:
                while _pick_victim() is None and env.now < give_up:
                    yield env.timeout(0.5)
                kill.victim = _pick_victim() or fallback_victim
            yield env.timeout(1.0)
        elif kill.victim is None:
            kill.victim = fallback_victim
        kill.at = env.now
        kill.vms.extend(cluster.fail_host(kill.victim))

    env.process(_kill(), name="drill.kill")


def run_drill(
    jobs: int = 4,
    vms_per_job: int = 1,
    spares: int = 2,
    cut_at_s: Optional[float] = None,
    heal_after_s: float = 120.0,
    kill_at_s: Optional[float] = None,
    kill_host: Optional[str] = None,
    checkpoint_period_s: Optional[float] = None,
    autonomous: bool = True,
    crash_site: Optional[str] = None,
    wan_gbps: float = 1.0,
    tenants: int = 2,
    link_budget_s: Optional[float] = 30.0,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
) -> DrillResult:
    """Drain the estate, inject the requested faults, and report how the
    incident-response stack (or its absence) handled them.

    At least one of ``cut_at_s`` (fiber cut) and ``kill_at_s`` (host
    kill) must be given; ``kill_host`` names the victim of a kill.
    ``checkpoint_period_s`` runs the fleet checkpoint service (without
    it a killed host's VMs cannot be restored).  ``crash_site`` kills
    the controller at that fault site (e.g. :data:`CRASH_SITE`,
    :data:`RESTORE_CRASH_SITE`, or a checkpoint site).
    """
    if cut_at_s is None and kill_at_s is None:
        raise ValueError("a drill needs a fiber cut (cut_at_s), a host kill (kill_at_s) or both")
    if kill_host is not None and kill_at_s is None:
        raise ValueError("kill_host needs kill_at_s")
    estate = build_estate(
        jobs, vms_per_job, FleetConfig(link_budget_s=link_budget_s),
        spares=spares, wan_gbps=wan_gbps, tenants=tenants, seed=seed,
        tracer=tracer,
    )
    cluster, orch, start_at = estate.cluster, estate.orch, estate.start_at
    env = cluster.env
    if crash_site is not None:
        cluster.faults.arm(
            crash_site,
            error=ControllerCrashError(f"injected crash {crash_label(crash_site)}"),
        )

    services: List[FleetCheckpointService] = []
    nfs = NfsServer(env, bandwidth_Bps=gbps(NFS_GBPS) * 0.7)

    def _new_service() -> FleetCheckpointService:
        # A successor resumes the generation numbering from the journal;
        # the open intent of a dead service never commits.
        service = FleetCheckpointService(
            cluster, orch.store, nfs, orch.journal, period_s=checkpoint_period_s
        )
        services.append(service)
        return service

    if checkpoint_period_s is not None:
        _new_service()

    monitor = _heartbeat_mesh(cluster, HEARTBEAT_PERIOD_S)
    runbook = _drill_runbook()

    def _new_manager(autonomous_: bool) -> IncidentManager:
        manager = IncidentManager(
            cluster,
            orch,
            heartbeats=monitor,
            probe_period_s=PROBE_PERIOD_S,
            autonomous=autonomous_,
            checkpoints=services[-1] if services else None,
            runbook=runbook,
        )
        manager.start()  # pre-fault samples let EWMA baselines learn "healthy"
        return manager

    managers = [_new_manager(autonomous)]
    for service in services:
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
    # The chaos clock starts with the drain: the fiber dies ``cut_at_s``
    # seconds into the migration traffic.
    estate.submit_drain(on_start=chaos.start if chaos is not None else None)
    kill = _Kill(victim=kill_host)
    if kill_at_s is not None:
        _spawn_kill(estate, kill, kill_at_s, bool(services))
    env.run(until=start_at + 0.001)

    def _crashed() -> bool:
        return any(m.crashed for m in managers) or any(s.crashed for s in services)

    def _settled(request) -> bool:
        # The baseline has no restore path: a request stuck behind a dead
        # VM will never run; count it stranded instead of waiting it out.
        return request.terminal or (
            not autonomous and request.defer_reason == "vm-down"
        )

    def _done() -> bool:
        if kill_at_s is not None and kill.at is None:
            return False
        if not all(_settled(r) for r in orch.requests):
            return False
        if crash_site is not None and not _crashed():
            return False  # the armed crash has not fired yet
        incidents = _all_incidents(managers)
        if not incidents:
            return False
        if autonomous:
            # An unrelated earlier incident (e.g. drain congestion) being
            # resolved must not end a kill drill before the heartbeat
            # silence is even detectable: require the victim's own
            # host-failure incident.
            if kill_at_s is not None and not any(
                i.klass == "host-failure"
                and kill.victim in (i.suspect_hosts | i.hosts)
                for i in incidents
            ):
                return False
            return all(i.status == RESOLVED for i in incidents)
        # Diagnosis-only baseline: give detection time to open the
        # incident after the fault.
        if kill.at is not None:
            return env.now >= kill.at + 15.0
        return env.now >= start_at + cut_at_s + 5.0

    deadline = start_at + MAX_RUNTIME_S
    resumed_count = 0
    while env.now < deadline and not _done():
        if managers[0].crashed and len(managers) == 1:
            # Controller succession: the dead manager stops observing; a
            # successor rebuilds its incidents from the journal and
            # finishes the runbooks without double-executing a step.
            managers[0].stop()
            successor = _new_manager(True)
            resumed_count = len(successor.resume())
            managers.append(successor)
        if services and services[-1].crashed:
            services[-1].stop()
            _new_service().start()
        env.run(until=env.now + 0.5)

    if services:
        # Let an in-flight checkpoint tick finish before folding final VM
        # state: its parked VMs resume at tick end and must not read as
        # lost.
        drain_until = env.now + 120.0
        while (
            any(rec.busy for rec in orch.store.jobs.values())
            and env.now < drain_until
        ):
            env.run(until=env.now + 0.5)
        # Sim time has not advanced since the busy check, so no new tick
        # can have started: stopping here never interrupts a parked fleet.
        for s in services:
            s.stop()

    outcome, violations = estate.fold(orch.requests)
    return DrillResult(
        jobs=jobs,
        vms_per_job=vms_per_job,
        autonomous=autonomous,
        cut_at_s=cut_at_s,
        heal_after_s=heal_after_s,
        kill_host=kill.victim or "",
        kill_at_s=kill_at_s,
        killed_at_s=round(kill.at - start_at, 3) if kill.at is not None else None,
        checkpoint_period_s=checkpoint_period_s,
        rpo_bound_s=checkpoint_period_s,
        vms_lost_at_kill=sorted(kill.vms),
        checkpoint_skips=sum(len(s.skips) for s in services),
        crash_injected=crash_site is not None,
        crash_site=crash_site or "",
        crashed=_crashed(),
        resumed_incidents=resumed_count,
        double_executed=_witnesses(violations, "double-action"),
        double_restored=_witnesses(violations, "double-restore"),
        spare_double_leases=_witnesses(violations, "double-lease"),
        **outcome,
        **_fold_incidents(orch, managers),
        **_fold_restores(orch.journal, kill.at),
    )


def _witnesses(violations: List[Violation], rule: str) -> List[List[object]]:
    """The key of every ``rule`` violation, as a result row."""
    return [list(v.subject) for v in violations if v.rule == rule]  # type: ignore[call-overload]


def _fold_incidents(orch, managers: List[IncidentManager]) -> Dict[str, object]:
    """Diagnosis and evacuation outcomes of a drill."""
    incidents = _all_incidents(managers)
    primary = incidents[0] if incidents else None
    return {
        "incidents": [i.to_dict() for i in incidents],
        "incident_class": primary.klass if primary is not None else "",
        "mttd_s": round(primary.mttd_s, 4) if primary is not None else None,
        "mttr_s": (
            round(primary.mttr_s, 4)
            if primary is not None and primary.mttr_s is not None
            else None
        ),
        "actions": list(primary.actions) if primary is not None else [],
        "incident_classes": sorted({i.klass for i in incidents}),
        "alerts": sum(len(m.alerts) for m in managers),
        "all_resolved": bool(incidents)
        and all(i.status == RESOLVED for i in incidents),
        "stranded": sum(1 for r in orch.requests if not r.terminal),
        "evacuated_jobs": sorted(
            {
                r.job_id
                for r in orch.requests
                if r.kind == "evacuate" and r.status == "completed"
            }
        ),
    }


def _fold_restores(journal, killed_at: Optional[float]) -> Dict[str, object]:
    """Checkpoint generations and restore RPO/RTO from the journal."""
    checkpoint_commits = [
        s.commit.payload for s in journal.steps_of("checkpoint") if s.commit
    ]
    restore_commits = [
        s.commit.payload for s in journal.steps_of("restore") if s.commit
    ]
    # True RPO: the drill knows the exact failure instant; measure lost
    # work from there back to the restored generation's consistency
    # point.  (The journal's per-restore ``rpo_s`` is the controller's
    # conservative estimate from the first detected anomaly instead.)
    consistency_by_gen = {
        (p.get("job"), p.get("generation")): float(p.get("consistency_at", 0.0))
        for p in checkpoint_commits
    }
    rpos = []
    for payload in restore_commits:
        consistency = consistency_by_gen.get(
            (payload.get("job"), payload.get("generation"))
        )
        if consistency is not None and killed_at is not None:
            rpos.append(max(killed_at - consistency, 0.0))
        else:
            rpos.append(float(payload.get("rpo_s", 0.0)))
    rtos = [float(p.get("rto_s", 0.0)) for p in restore_commits]
    return {
        "generations_committed": len(checkpoint_commits),
        "rpo_s": round(max(rpos), 4) if rpos else None,
        "restore_rto_s": round(max(rtos), 4) if rtos else None,
        "restored_jobs": sorted({str(p.get("job")) for p in restore_commits}),
        "adopted_vms": sorted(
            {str(v) for p in restore_commits for v in p.get("adopted", ())}
        ),
    }


def run_incident_scenario(cut_at_s: float = 6.0, **options) -> DrillResult:
    """The fiber-cut preset: the WAN fiber goes dark ``cut_at_s`` seconds
    into the drain (``options`` as for :func:`run_drill`)."""
    return run_drill(cut_at_s=cut_at_s, **options)


def run_host_failure_scenario(
    kill_at_s: float = 12.0, checkpoint_period_s: float = 20.0, **options
) -> DrillResult:
    """The host-kill preset: checkpoints every ``checkpoint_period_s`` and
    an unannounced host kill ``kill_at_s`` seconds into the drain
    (``options`` as for :func:`run_drill`)."""
    return run_drill(
        kill_at_s=kill_at_s, checkpoint_period_s=checkpoint_period_s, **options
    )
