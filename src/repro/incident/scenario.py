"""One drill runner for the two-site estate — plain and naive drains,
controller crashes, fiber cuts, host kills — behind ``repro fleet``,
``repro incident`` and BENCH_fleet / BENCH_incident / BENCH_hostfail.

The estate is :func:`~repro.orchestrator.scenario.build_estate`'s: IB
blades draining onto an Ethernet estate whose far half sits behind a
thin WAN pipe, plus ``spares`` empty primary-site hosts.
:func:`run_drill` drains it and injects any mix of:

* **component faults and a degraded network** — ``inject_site`` arms the
  fault injector (abort → blacklist → retry), ``degrade_spec`` schedules
  network chaos from the drain start, ``postcopy`` and
  ``viability_floor_Bps`` set the policy that copes with it;
* a **controller crash** — at ``crash_site``, or at the first
  ``controller.crash.*`` boundary ``crash_at_s`` seconds into the drain.
  The dead controller hands over to a successor over the same journal:
  an orchestrator after journal replay (fence → recover → successor →
  resubmit), an incident manager or checkpoint service directly.  It
  must finish without double-executing a committed step or
  double-restoring a job; ``recover=False`` leaves the wreckage;
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
  snapshots every eligible job each ``checkpoint_period_s`` onto NFS.

A cut or kill builds the incident-response stack (heartbeat mesh,
incident manager, NFS, checkpoint service); ``autonomous=False`` is its
diagnosis-only baseline.  Incident resolution has no event to wait on,
so those drills poll every half second; a drain without them runs until
every request settles, or until a crash fires.

:func:`~repro.orchestrator.scenario.run_fleet_scenario` (the drain, no
spares), :func:`run_incident_scenario` (the fiber cut) and
:func:`run_host_failure_scenario` (the host kill with checkpointing) are
the three presets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.errors import ControllerCrashError, QmpError
from repro.hardware.cluster import Cluster
from repro.incident.correlator import RESOLVED, Incident
from repro.incident.manager import IncidentManager
from repro.incident.runbook import (
    DEFAULT_RUNBOOK,
    RESTORE_BOOT_SITE,
    RunbookStep,
)
from repro.invariants import Violation
from repro.network.degradation import DegradationEvent, NetworkChaos, parse_degrade_spec
from repro.orchestrator.executor import FleetConfig, FleetOrchestrator
from repro.orchestrator.scenario import Estate, build_estate
from repro.orchestrator.state import FleetStateStore
from repro.recovery.checkpoints import FleetCheckpointService
from repro.recovery.failure_detector import HeartbeatMonitor
from repro.recovery.recovery import RecoveryManager, RecoveryReport
from repro.sim.trace import Tracer
from repro.storage.nfs import NfsServer
from repro.units import gbps
from repro.vmm.policy import MigrationPolicy

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
#: The checkpoint store hangs off the enclosure's converged fabric, not
#: the clients' 10 GbE links: a generation's write window must fit well
#: inside the checkpoint period.
NFS_GBPS = 40.0


@dataclass
class DrillResult:
    """Everything ``repro fleet`` and ``repro incident`` print and
    BENCH_fleet.json, BENCH_incident.json and BENCH_hostfail.json record."""

    jobs: int
    vms_per_job: int
    autonomous: bool
    #: Planner on (waves + destination swaps), or the naive all-at-once drain.
    sequenced: bool = True
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
    #: Controller crash: where and how early it was armed, whether and
    #: when (relative to the drain start) it fired, and the dead
    #: controller's error.
    crash_injected: bool = False
    crash_site: str = ""
    crash_at_s: Optional[float] = None
    crashed: bool = False
    crashed_at_s: Optional[float] = None
    crash_error: str = ""
    resumed_incidents: int = 0
    #: Journal replay after an orchestrator crash: every decision clean,
    #: the fenced epoch, one row per orphaned sequence, the origin
    #: reservations re-seeded and the requests the successor resubmitted.
    recovered: bool = False
    recovery_epoch: Optional[int] = None
    decisions: List[Dict[str, object]] = field(default_factory=list)
    reseeded: int = 0
    resubmitted: int = 0
    #: (incident, step) runbook steps committed more than once across
    #: the dead and successor controllers — must stay empty.  This and
    #: the next two fields are :func:`repro.invariants.check` findings.
    double_executed: List[List[object]] = field(default_factory=list)
    #: (incident, job) pairs with more than one restore-commit — the
    #: no-double-restore witness, must stay empty.
    double_restored: List[List[object]] = field(default_factory=list)
    #: Spare hosts ever leased to two incidents at once — must stay empty.
    spare_double_leases: List[List[object]] = field(default_factory=list)
    #: Migrations started by each scan that started any — the de-facto
    #: concurrency of each execution wave — and the planner's admission
    #: deferrals and destination swaps, over every orchestrator.
    wave_concurrency: List[int] = field(default_factory=list)
    deferred: Dict[str, int] = field(default_factory=dict)
    deferred_total: int = 0
    destination_swaps: int = 0
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
        monitor.beat_every(node, period_s)
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
        if checkpointing:
            # Kill only once the victim's jobs hold a committed checkpoint
            # generation: the failure is still unannounced to the
            # controller, the drill just measures the restore path rather
            # than the (separately tested) no-checkpoint error path.
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


class _Controllers:
    """A drill's controllers: the estate's orchestrator and, once a cut or
    kill brings up the incident stack, the incident manager and the
    checkpoint service.  Each role keeps every incarnation, the live one
    last; :meth:`succeed` is the one succession path for all three."""

    def __init__(self, estate: Estate, checkpoint_period_s: Optional[float]) -> None:
        self.estate = estate
        self.period_s = checkpoint_period_s
        self.orchs: List[FleetOrchestrator] = [estate.orch]
        self.managers: List[IncidentManager] = []
        self.services: List[FleetCheckpointService] = []
        #: The journal replay that preceded the successor orchestrator.
        self.recovery: Optional[RecoveryReport] = None
        self.resumed_incidents = 0

    def start_incident_stack(self, autonomous: bool) -> None:
        """NFS, the checkpoint service (given a period), the heartbeat
        mesh and the incident manager."""
        cluster = self.estate.cluster
        self.nfs = NfsServer(cluster.env, bandwidth_Bps=gbps(NFS_GBPS) * 0.7)
        if self.period_s is not None:
            self._new_service()
        self.monitor = _heartbeat_mesh(cluster, HEARTBEAT_PERIOD_S)
        self.runbook = _drill_runbook()
        self._new_manager(autonomous)
        for service in self.services:
            service.start()

    def _new_service(self) -> FleetCheckpointService:
        # A successor resumes the generation numbering from the journal;
        # the open intent of a dead service never commits.
        orch = self.estate.orch
        service = FleetCheckpointService(
            self.estate.cluster, orch.store, self.nfs, orch.journal, period_s=self.period_s
        )
        self.services.append(service)
        return service

    def _new_manager(self, autonomous: bool) -> IncidentManager:
        manager = IncidentManager(
            self.estate.cluster,
            self.estate.orch,
            heartbeats=self.monitor,
            probe_period_s=PROBE_PERIOD_S,
            autonomous=autonomous,
            checkpoints=self.services[-1] if self.services else None,
            runbook=self.runbook,
        )
        manager.start()  # pre-fault samples let EWMA baselines learn "healthy"
        self.managers.append(manager)
        return manager

    def dead(self) -> list:
        """Every crashed incarnation, orchestrators first."""
        return [c for c in (*self.orchs, *self.managers, *self.services) if c.crashed]

    def succeed(self, reason: str) -> None:
        """Replace whichever controller died with a successor over the
        same journal, which must not double-execute a committed step."""
        if self.orchs[-1].crashed and len(self.orchs) == 1:
            self._succeed_orchestrator(reason)
        if self.managers and self.managers[0].crashed and len(self.managers) == 1:
            # The dead manager stops observing; a successor rebuilds its
            # incidents from the journal and finishes the runbooks.
            self.managers[0].stop()
            self.resumed_incidents = len(self._new_manager(True).resume())
        if self.services and self.services[-1].crashed:
            self.services[-1].stop()
            self._new_service().start()

    def _succeed_orchestrator(self, reason: str) -> None:
        """Fence → recover → successor → resubmit.

        Let the zombie sequences die at their next boundary, then replay
        the journal into a *fresh* state store (the dead orchestrator's
        reservations died with it): recovery fences the epoch, rolls each
        orphan forward or back and re-seeds reservations.  A successor
        over the same journal and the seeded store resubmits the
        orphaned requests.
        """
        estate, dead = self.estate, self.orchs[0]
        cluster, env = estate.cluster, estate.cluster.env
        env.run(until=dead.crash_drained())
        store = FleetStateStore(cluster)
        recovery = env.process(
            RecoveryManager(cluster, dead.journal, store=store).recover(reason=reason),
            name="recovery",
        )
        env.run(until=recovery)
        self.recovery = recovery.value
        successor = FleetOrchestrator(
            cluster, config=dead.config, state=store, journal=dead.journal
        )
        estate.register_jobs(successor)
        for spec in self.recovery.resubmit:
            successor.submit(
                str(spec["job"]),
                kind=str(spec.get("kind", "fallback")),
                priority=int(spec.get("priority", 0) or 0),
                dst_hosts=spec.get("dst_hosts"),  # type: ignore[arg-type]
            )
        self.orchs.append(successor)


def run_drill(
    jobs: int = 4,
    vms_per_job: int = 1,
    spares: int = 2,
    sequenced: bool = True,
    cut_at_s: Optional[float] = None,
    heal_after_s: float = 120.0,
    kill_at_s: Optional[float] = None,
    kill_host: Optional[str] = None,
    checkpoint_period_s: Optional[float] = None,
    autonomous: bool = True,
    crash_site: Optional[str] = None,
    crash_at_s: Optional[float] = None,
    recover: bool = True,
    inject_site: Optional[str] = None,
    inject_nth: int = 1,
    inject_transient: bool = False,
    degrade_spec: Optional[str] = None,
    degrade_link: str = "wan:*",
    postcopy: str = "off",
    viability_floor_Bps: Optional[float] = None,
    wan_gbps: float = 1.0,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
) -> DrillResult:
    """Drain the estate, inject the requested faults, and report how the
    control plane (and the incident-response stack, or its absence)
    handled them.

    ``sequenced=False`` drains with the naive all-at-once config.
    ``inject_site`` arms the fault injector on its ``inject_nth`` call;
    ``inject_transient`` makes the fault a retryable
    :class:`~repro.errors.QmpError` instead of an abort + rollback.
    ``degrade_spec`` is a :func:`~repro.network.degradation.parse_degrade_spec`
    schedule against the links matching ``degrade_link``, its clock
    starting with the drain; ``postcopy`` feeds an adaptive
    :class:`~repro.vmm.policy.MigrationPolicy` to every Ninja sequence;
    ``viability_floor_Bps`` defers requests whose path bottleneck has
    degraded below it.

    ``cut_at_s`` (fiber cut) and ``kill_at_s`` (host kill, ``kill_host``
    its victim) bring up the incident stack; ``checkpoint_period_s`` adds
    the checkpoint service (without it a killed host's VMs cannot be
    restored).  ``crash_site`` kills a controller at that fault site
    (e.g. :data:`CRASH_SITE`, :data:`RESTORE_CRASH_SITE`, a checkpoint
    site); ``crash_at_s`` kills the orchestrator at the first
    ``controller.crash.*`` boundary that many seconds into the drain.
    ``recover=False`` leaves a crashed controller without a successor.
    ``seed`` is accepted so seeded callers share one call shape; the
    estate draws nothing from it, so every seed gives the same run.
    """
    incident = cut_at_s is not None or kill_at_s is not None
    if kill_host is not None and kill_at_s is None:
        raise ValueError("kill_host needs kill_at_s")
    if checkpoint_period_s is not None and not incident:
        raise ValueError("checkpoint_period_s needs a fiber cut or a host kill")
    if crash_at_s is not None and incident:
        raise ValueError("crash_at_s cannot be combined with a fiber cut or a host kill")
    config = FleetConfig(naive=not sequenced, viability_floor_Bps=viability_floor_Bps)
    estate = build_estate(
        jobs, vms_per_job, config, spares=spares, wan_gbps=wan_gbps,
        tracer=tracer,
    )
    cluster, orch, start_at = estate.cluster, estate.orch, estate.start_at
    env = cluster.env
    if inject_site:
        transient = QmpError("GenericError", "injected transient fault")
        # No error: the default FaultInjectionError aborts and rolls back.
        cluster.faults.arm(
            inject_site, error=transient if inject_transient else None, nth=inject_nth
        )
    crash, reason = None, ""
    if crash_site is not None or crash_at_s is not None:
        when = crash_label(crash_site) if crash_at_s is None else f"at t+{crash_at_s}s"
        reason = f"crash {when}"
        crash = cluster.faults.arm(
            crash_site or "controller.crash.*",
            error=(
                ControllerCrashError(f"injected crash {crash_label(crash_site)}")
                if crash_site is not None
                else None
            ),
            at_time=None if crash_at_s is None else start_at + crash_at_s,
        )
    if postcopy != "off":
        orch.ninja.migration_policy = MigrationPolicy.adaptive(postcopy=postcopy)

    controllers = _Controllers(estate, checkpoint_period_s)
    if incident:
        controllers.start_incident_stack(autonomous)
    managers, services = controllers.managers, controllers.services

    # The chaos clock starts with the drain: ``t=`` offsets count from the
    # first submission, and the fiber dies ``cut_at_s`` into the traffic.
    events = (
        parse_degrade_spec(degrade_spec, link_pattern=degrade_link) if degrade_spec else []
    )
    if cut_at_s is not None:
        events.append(
            DegradationEvent(
                at_time=cut_at_s, kind="drop", duration_s=heal_after_s,
                link_pattern="wan:*",
            )
        )
    chaos = NetworkChaos(cluster, events) if events else None
    estate.submit_drain(on_start=chaos.start if chaos is not None else None)
    kill = _Kill(victim=kill_host)
    if kill_at_s is not None:
        _spawn_kill(estate, kill, kill_at_s, bool(services))
    env.run(until=start_at + 0.001)  # requests now queued; loop running

    if not incident:
        env.run(
            until=orch.all_settled()
            if crash is None
            else env.any_of([orch.crash_event, orch.all_settled()])
        )
        if orch.crashed and recover:
            controllers.succeed(reason)
            successor = controllers.orchs[-1]
            if successor.requests:
                env.run(until=successor.all_settled())
    else:
        # Incident resolution has no event to wait on: poll.
        def _settled(request) -> bool:
            # The baseline has no restore path: a request stuck behind a
            # dead VM will never run; count it stranded instead of
            # waiting it out.
            return request.terminal or (
                not autonomous and request.defer_reason == "vm-down"
            )

        def _done() -> bool:
            if kill_at_s is not None and kill.at is None:
                return False
            if not all(_settled(r) for r in orch.requests):
                return False
            if crash is not None and not controllers.dead():
                return False  # the armed crash has not fired yet
            incidents = _all_incidents(managers)
            if not incidents:
                return False
            if autonomous:
                # An unrelated earlier incident (e.g. drain congestion)
                # being resolved must not end a kill drill before the
                # heartbeat silence is even detectable: require the
                # victim's own host-failure incident.
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
        while env.now < deadline and not _done():
            if recover:
                controllers.succeed(reason)
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

    orchs = controllers.orchs
    # Requests a dead orchestrator never finished are superseded by the
    # successor's resubmissions; count outcomes over what terminated.
    requests = [r for o in orchs[:-1] for r in o.requests if r.terminal]
    requests += orchs[-1].requests
    outcome, violations = estate.fold(requests, store=orchs[-1].store)
    dead = controllers.dead()
    fired = [f.time for f in cluster.faults.fired if f.spec is crash]
    return DrillResult(
        jobs=jobs,
        vms_per_job=vms_per_job,
        autonomous=autonomous,
        sequenced=sequenced,
        cut_at_s=cut_at_s,
        heal_after_s=heal_after_s,
        kill_host=kill.victim or "",
        kill_at_s=kill_at_s,
        killed_at_s=round(kill.at - start_at, 3) if kill.at is not None else None,
        checkpoint_period_s=checkpoint_period_s,
        rpo_bound_s=checkpoint_period_s,
        vms_lost_at_kill=sorted(kill.vms),
        checkpoint_skips=sum(len(s.skips) for s in services),
        crash_injected=crash is not None,
        crash_site=crash_site or "",
        crash_at_s=crash_at_s,
        crashed=bool(dead),
        crashed_at_s=round(fired[0] - start_at, 3) if fired else None,
        crash_error=dead[0].crash_error if dead else "",
        resumed_incidents=controllers.resumed_incidents,
        double_executed=_witnesses(violations, "double-action"),
        double_restored=_witnesses(violations, "double-restore"),
        spare_double_leases=_witnesses(violations, "double-lease"),
        **outcome,
        **_fold_incidents(requests, managers),
        **_fold_restores(orch.journal, kill.at),
        **_fold_recovery(controllers),
        **_fold_planner(orchs),
    )


def _witnesses(violations: List[Violation], rule: str) -> List[List[object]]:
    """The key of every ``rule`` violation, as a result row."""
    return [list(v.subject) for v in violations if v.rule == rule]  # type: ignore[call-overload]


def _fold_incidents(requests, managers: List[IncidentManager]) -> Dict[str, object]:
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
        "stranded": sum(1 for r in requests if not r.terminal),
        "evacuated_jobs": sorted(
            {
                r.job_id
                for r in requests
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


def _fold_recovery(controllers: _Controllers) -> Dict[str, object]:
    """The journal replay before a successor orchestrator, if one ran."""
    report = controllers.recovery
    if report is None:
        return {}
    return {
        "recovered": report.clean,
        "recovery_epoch": report.epoch,
        "decisions": [
            {
                "mid": d.mid,
                "decision": d.decision,
                "phase_reached": d.phase_reached,
                "basis": d.basis,
                "actions": d.actions,
                "parked_after": d.parked_after,
                "error": d.error,
            }
            for d in report.decisions
        ],
        "reseeded": report.reseeded,
        "resubmitted": len(controllers.orchs[-1].requests),
    }


def _fold_planner(orchs: List[FleetOrchestrator]) -> Dict[str, object]:
    """Wave concurrency, admission deferrals and destination swaps."""
    deferred: Counter = Counter()
    for o in orchs:
        deferred.update(o.admission.stats.deferred)
    return {
        "wave_concurrency": [n for o in orchs for n in o.wave_log],
        "deferred": dict(deferred),
        "deferred_total": sum(deferred.values()),
        "destination_swaps": sum(o.swaps_applied for o in orchs),
    }


def run_incident_scenario(cut_at_s: float = 6.0, **options) -> DrillResult:
    """The fiber-cut preset: the WAN fiber goes dark ``cut_at_s`` seconds
    into the drain (``options`` as for :func:`run_drill`; the estate draws
    nothing from ``seed``)."""
    return run_drill(cut_at_s=cut_at_s, **options)


def run_host_failure_scenario(
    kill_at_s: float = 12.0, checkpoint_period_s: float = 20.0, **options
) -> DrillResult:
    """The host-kill preset: checkpoints every ``checkpoint_period_s`` and
    an unannounced host kill ``kill_at_s`` seconds into the drain
    (``options`` as for :func:`run_drill`; the estate draws nothing from
    ``seed``)."""
    return run_drill(
        kill_at_s=kill_at_s, checkpoint_period_s=checkpoint_period_s, **options
    )
