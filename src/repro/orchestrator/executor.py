"""The fleet orchestrator: a control plane above the cloud scheduler.

:class:`FleetOrchestrator` drives many concurrent Ninja migrations over
one cluster.  It composes the subsystem's four parts:

* the :class:`~repro.orchestrator.state.FleetStateStore` (global truth:
  jobs, reservations, in-flight migrations);
* the :class:`~repro.orchestrator.placement.PlacementEngine`
  (reservation-aware destination picking);
* the :class:`~repro.orchestrator.planner.WavePlanner` (bandwidth-aware
  sequencing + destination swapping);
* the :class:`~repro.orchestrator.admission.AdmissionController`
  (priority queue, tenant limits, backpressure).

Each admitted request runs the existing **transactional** Ninja sequence
(:class:`~repro.core.ninja.NinjaMigration`, PR 1) as its own simulation
process.  Compositional guarantees:

* an *aborted* sequence rolled the job back to a safe running state —
  the orchestrator re-enqueues the request with the failed destinations
  blacklisted, up to ``max_attempts``;
* an *unrecoverable* abort (:class:`~repro.errors.MigrationAbortedError`
  — the rollback itself failed) marks the request ``failed`` and stops
  retrying: the job is in an unknown state and human attention beats
  another automated attempt;
* a *committed degrade* counts as completion (the VMs did move).

The orchestrator does not watch host health itself.  Suspect and dead
hosts reach it through the incident pipeline
(:mod:`repro.incident`): a journaled runbook submits ``evacuate``
requests tagged with their ``incident_id``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.ninja import NinjaMigration
from repro.core.plan import MigrationPlan
from repro.errors import (
    ControllerCrashError,
    FleetError,
    MigrationAbortedError,
    NetworkError,
    PlanError,
    ReproError,
    SchedulerError,
)
from repro.recovery.journal import MigrationJournal
from repro.orchestrator.admission import (
    ABORTED,
    CANCELLED,
    COMPLETED,
    FAILED,
    PENDING,
    RUNNING,
    AdmissionController,
    MigrationRequest,
)
from repro.orchestrator.placement import PlacementEngine
from repro.orchestrator.planner import PlannedMigration, WavePlanner, migration_links
from repro.orchestrator.state import FleetJob, FleetStateStore, SpareArbiter
from repro.sim.events import Event
from repro.vmm.vm import RunState

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.cluster import Cluster
    from repro.mpi.runtime import MpiJob
    from repro.vmm.qemu import QemuProcess


@dataclass
class FleetConfig:
    """Orchestrator policy knobs."""

    #: Serialise migrations that share a directed link (waves).  ``False``
    #: reproduces the naive fire-everything-concurrently baseline.
    sequencing: bool = True
    #: Run the destination-swap post-pass over each admitted batch.
    destination_swap: bool = True
    #: Per-link budget, expressed in *seconds of solo transfer*: a request
    #: is deferred while the estimated in-flight bytes on any of its links
    #: exceed ``link_budget_s x capacity``.  ``None`` disables the gate.
    link_budget_s: Optional[float] = 30.0
    #: Fleet-wide cap on concurrent Ninja sequences (``None`` = unlimited).
    max_inflight_total: Optional[int] = None
    #: Per-tenant cap on concurrent sequences (``None`` = unlimited).
    max_inflight_per_tenant: Optional[int] = None
    #: Default retry budget for aborted-and-rolled-back requests.
    max_attempts: int = 3
    #: Priority of the ``evacuate`` requests incident runbooks submit.
    evacuation_priority: int = 100
    #: Minimum bottleneck bandwidth (bytes/s) a migration path must offer
    #: before a request is started.  Requests whose links have degraded
    #: below the floor (chaos, outages) are deferred — re-planned or
    #: re-queued until the path heals or ``degraded_max_wait_s`` elapses.
    #: ``None`` disables the gate.
    viability_floor_Bps: Optional[float] = None
    #: How often to re-probe degraded paths while nothing else can run.
    degraded_recheck_s: float = 5.0
    #: Give up on a degraded path after waiting this long in total.
    degraded_max_wait_s: float = 600.0
    #: How often to re-check requests deferred on a busy job (proactive
    #: checkpoint in flight) or a down VM (awaiting checkpoint restore)
    #: while nothing else can run.
    busy_recheck_s: float = 0.5

    @classmethod
    def naive(cls) -> "FleetConfig":
        """The all-at-once baseline: no sequencing, swapping, or budget."""
        return cls(
            sequencing=False,
            destination_swap=False,
            link_budget_s=None,
            max_inflight_total=None,
            max_inflight_per_tenant=None,
        )


class FleetOrchestrator:
    """Concurrent multi-job Ninja migrations with admission control."""

    def __init__(
        self,
        cluster: "Cluster",
        config: Optional[FleetConfig] = None,
        state: Optional[FleetStateStore] = None,
        ninja: Optional[NinjaMigration] = None,
        journal: Optional[MigrationJournal] = None,
    ) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.config = config if config is not None else FleetConfig()
        self.store = state if state is not None else FleetStateStore(cluster)
        self.placement = PlacementEngine(cluster, self.store)
        self.planner = WavePlanner(cluster)
        self.admission = AdmissionController(
            max_inflight_total=self.config.max_inflight_total,
            max_inflight_per_tenant=self.config.max_inflight_per_tenant,
        )
        self.ninja = (
            ninja if ninja is not None else NinjaMigration(cluster, journal=journal)
        )
        #: Shared write-ahead journal (``journal`` is ignored when an
        #: explicit ``ninja`` brings its own).
        self.journal = self.ninja.journal
        #: Spare-host leases across concurrent incident remediations.
        self.arbiter = SpareArbiter(cluster)
        #: Set when a ``controller.crash.*`` fault killed the control
        #: plane: the scan loop stops, running sequences die at their
        #: next boundary, and no graceful bookkeeping runs — recovery
        #: (:class:`~repro.recovery.recovery.RecoveryManager`) takes over.
        self.crashed = False
        self.crash_error = ""
        self.crash_event = Event(self.env)
        self._procs: Dict[MigrationRequest, object] = {}
        self.requests: List[MigrationRequest] = []
        self._running: List[MigrationRequest] = []
        #: Links footprint of each running request (sequencing gate).
        self._running_footprint: Dict[MigrationRequest, PlannedMigration] = {}
        self._wake: Optional[Event] = None
        self._loop_proc = None
        self._settle_waiters: List[Event] = []
        #: Number of requests started by each scan that started any —
        #: the de-facto concurrency of each execution wave.
        self.wave_log: List[int] = []
        self.swaps_applied = 0

    # -- registration / submission ----------------------------------------------------

    def register_job(
        self,
        job_id: str,
        job: "MpiJob",
        qemus: Sequence["QemuProcess"],
        tenant: str = "default",
        rank_main=None,
    ) -> FleetJob:
        return self.store.register_job(
            job_id, job, qemus, tenant=tenant, rank_main=rank_main
        )

    def submit(
        self,
        job_id: str,
        kind: str = "fallback",
        priority: int = 0,
        consolidate_to: Optional[int] = None,
        dst_hosts: Optional[Sequence[str]] = None,
        max_attempts: Optional[int] = None,
        incident_id: Optional[int] = None,
    ) -> MigrationRequest:
        """Queue a migration request for a registered job."""
        record = self.store.job(job_id)
        request = MigrationRequest(
            fleet_job=record,
            request_id=self.journal.next_id("request"),
            kind=kind,
            priority=priority,
            consolidate_to=consolidate_to,
            dst_hosts=list(dst_hosts) if dst_hosts is not None else None,
            submitted_at=self.env.now,
            max_attempts=(
                max_attempts if max_attempts is not None else self.config.max_attempts
            ),
            incident_id=incident_id,
            done=Event(self.env),
        )
        self.requests.append(request)
        self.admission.submit(request)
        self.journal.append(
            "request", request=request.request_id, job=job_id,
            request_kind=kind, priority=priority,
            dst_hosts=list(dst_hosts) if dst_hosts is not None else None,
        )
        self.cluster.trace(
            "fleet", "submitted", request=request.request_id, job=job_id,
            kind=kind, priority=priority,
        )
        self._ensure_loop()
        self._kick()
        return request

    # -- incident-response integration --------------------------------------------------

    def nudge(self) -> None:
        """Public kick: restart/wake the scan loop (incident readmission)."""
        self._ensure_loop()
        self._kick()

    def cancel(self, request: MigrationRequest, reason: str = "") -> bool:
        """Withdraw a queued (not yet running) request.

        Incident remediation cancels requests whose explicit destinations
        became unreachable and resubmits them as evacuations.  Running
        sequences are left alone — the transactional Ninja abort path
        already rolls those back.  Returns ``True`` if the request was
        cancelled.
        """
        if request.terminal or request.status == RUNNING:
            return False
        # The heap entry stays; select() skips terminal requests.
        self._finish(request, CANCELLED, error=reason)
        self._kick()
        return True

    def affected_requests(self, link_names: Sequence[str]) -> List[MigrationRequest]:
        """Requests whose migration traffic depends on the named links.

        Blast-radius probe for the incident correlator: running requests
        whose claimed footprint crosses an affected link, plus pending
        requests that can no longer route (or whose route crosses one).
        """
        names = set(link_names)
        affected: List[MigrationRequest] = []
        for request, item in self._running_footprint.items():
            if any(dlink.link.name in names for dlink in item.links):
                affected.append(request)
        for request in self.admission.pending:
            if request.defer_reason in ("degraded-link", "no-placement"):
                affected.append(request)
            elif self._route_crosses(request, names):
                affected.append(request)
        return affected

    def _route_crosses(self, request: MigrationRequest, names: set) -> bool:
        """Best-effort: would this pending request's traffic cross ``names``?"""
        if self.cluster.eth_fabric is None or not request.dst_hosts:
            return False
        topology = self.cluster.eth_fabric.topology
        for src in request.fleet_job.hosts():
            for dst in request.dst_hosts:
                if src == dst:
                    continue
                try:
                    path = topology.path(src, dst)
                except NetworkError:
                    return True  # unroutable already
                if any(dlink.link.name in names for dlink in path):
                    return True
        return False

    # -- completion observation ---------------------------------------------------------

    @property
    def settled(self) -> bool:
        """True when every submitted request reached a terminal state."""
        return not self._running and all(r.terminal for r in self.requests)

    def all_settled(self) -> Event:
        """Event firing once every submitted request is terminal."""
        event = Event(self.env)
        if self.settled:
            event.succeed(self)
        else:
            self._settle_waiters.append(event)
        return event

    def _check_settled(self) -> None:
        if not self.settled:
            return
        waiters, self._settle_waiters = self._settle_waiters, []
        for event in waiters:
            if not event.triggered:
                event.succeed(self)

    # -- the scan/execute loop ------------------------------------------------------------

    def _ensure_loop(self) -> None:
        if self._loop_proc is None or not self._loop_proc.is_alive:
            self._loop_proc = self.env.process(self._run(), name="fleet.loop")

    def _kick(self) -> None:
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed(None)

    def _run(self):
        degraded_wait = 0.0
        busy_wait = 0.0
        while True:
            if self.crashed:
                return
            started = self._scan()
            if started:
                degraded_wait = 0.0
                busy_wait = 0.0
            if not self._running and not len(self.admission):
                self._check_settled()
                return  # drained; a new submit restarts the loop
            if started == 0 and not self._running and len(self.admission):
                degraded = [
                    r for r in self.admission.pending
                    if r.defer_reason == "degraded-link"
                ]
                if degraded and degraded_wait < self.config.degraded_max_wait_s:
                    # Degraded links heal (outages end, chaos schedules
                    # expire): keep re-probing instead of failing the
                    # requests outright.
                    degraded_wait += self.config.degraded_recheck_s
                    self.cluster.trace(
                        "fleet", "degraded_wait",
                        pending=len(degraded),
                        waited_s=round(degraded_wait, 1),
                    )
                    yield self.env.timeout(self.config.degraded_recheck_s)
                    continue
                waiting = [
                    r for r in self.admission.pending
                    if r.defer_reason in ("job-busy", "vm-down")
                ]
                if waiting and busy_wait < self.config.degraded_max_wait_s:
                    # Busy jobs finish their checkpoint; down VMs come
                    # back through checkpoint restore.  Both resolve on
                    # their own clock — poll, don't fail.
                    busy_wait += self.config.busy_recheck_s
                    yield self.env.timeout(self.config.busy_recheck_s)
                    continue
                # Nothing runs, nothing could start, and no completion
                # will ever wake us: the queued requests are infeasible.
                self._fail_stuck_requests()
                continue
            self._wake = Event(self.env)
            yield self._wake
            self._wake = None

    def _fail_stuck_requests(self) -> None:
        for request in self.admission.pending:
            if request.terminal:
                continue
            self._finish(
                request,
                FAILED,
                error=f"no feasible placement ({request.defer_reason or 'unknown'})",
            )

    def _scan(self) -> int:
        """One admission/planning/start pass; returns migrations started."""
        if self.crashed:
            return 0
        batch = self.admission.select(self._running)
        if not batch:
            return 0

        # 1. placement — reservation-aware, blacklist-honouring.
        planned: List[PlannedMigration] = []
        by_item: Dict[PlannedMigration, MigrationRequest] = {}
        for request in batch:
            if request.fleet_job.busy:
                # A proactive checkpoint (or an externally driven
                # sequence) holds the job's SymVirt exclusivity right
                # now; admission only sees *requests*, so re-check here.
                self._defer(request, "job-busy")
                continue
            if any(
                q.vm.state is RunState.SHUTOFF for q in request.fleet_job.qemus
            ):
                # A host died under this job: migration would park dead
                # guests.  Hold the request until checkpoint restore
                # replaces the VMs (or the wait budget expires).
                self._defer(request, "vm-down")
                continue
            try:
                plan = self._build_plan(request)
            except (SchedulerError, PlanError, FleetError) as err:
                self._defer(request, "no-placement", error=str(err))
                continue
            if self._below_viability(plan) or self._crosses_blacklist(plan):
                self._defer(request, "degraded-link")
                continue
            try:
                item = PlannedMigration(plan).refresh(self.cluster)
            except NetworkError as err:
                # No route mid-outage (and no viability floor armed to
                # catch it earlier): defer, don't crash the scan loop.
                self._defer(request, "degraded-link", error=str(err))
                continue
            planned.append(item)
            by_item[item] = request

        if not planned:
            return 0

        # 2. destination-swap post-pass over the whole batch.
        if self.config.destination_swap and len(planned) > 1:
            self.planner.destination_swap(planned)
            if self.planner.swaps_applied:
                self.swaps_applied += self.planner.swaps_applied
                self.cluster.trace(
                    "fleet", "destination_swap", swaps=self.planner.swaps_applied
                )

        # 3. sequencing: only the first (link-disjoint) wave starts now.
        busy_links = frozenset().union(
            *(item.links for item in self._running_footprint.values())
        ) if self._running_footprint else frozenset()
        if self.config.sequencing:
            waves = self.planner.waves(planned, busy_links=busy_links)
            startable, held = waves[0], [i for wave in waves[1:] for i in wave]
        else:
            startable, held = list(planned), []
        for item in held:
            self._defer(by_item[item], "link-conflict")

        # 4. link budget + reservation claims, then launch.
        started = 0
        inflight_loads = self._inflight_link_loads()
        for item in startable:
            request = by_item[item]
            if self._over_budget(item, inflight_loads):
                self._defer(request, "link-budget")
                continue
            try:
                reservations = self.store.claim_plan(item.plan, owner=request)
            except FleetError as err:
                self._defer(request, "reservation", error=str(err))
                continue
            for reservation in reservations:
                self.journal.append(
                    "reservation", request=request.request_id,
                    label=item.plan.label, host=reservation.host,
                    nbytes=reservation.nbytes, hca=reservation.hca,
                )
            self._start(request, item)
            for dlink, nbytes in item.bytes_by_link.items():
                inflight_loads[dlink] = inflight_loads.get(dlink, 0.0) + nbytes
            started += 1
        if started:
            self.wave_log.append(started)
        return started

    # -- gates & helpers ---------------------------------------------------------------

    def _defer(
        self, request: MigrationRequest, reason: str, error: Optional[str] = None
    ) -> None:
        """Requeue ``request`` for a later scan, counting ``reason``."""
        request.defer_reason = reason
        if error is not None:
            request.error = error
        self.admission.stats.defer(reason)
        self.admission.submit(request, requeue=True)

    def _inflight_link_loads(self) -> Dict[object, float]:
        loads: Dict[object, float] = {}
        for item in self._running_footprint.values():
            for dlink, nbytes in item.bytes_by_link.items():
                loads[dlink] = loads.get(dlink, 0.0) + nbytes
        return loads

    def _below_viability(self, plan: MigrationPlan) -> bool:
        """True when any migration path's bottleneck sits below the
        viability floor — starting now would crawl through a degraded
        link (or abort outright on a down one)."""
        floor = self.config.viability_floor_Bps
        if floor is None or self.cluster.eth_fabric is None:
            return False
        topology = self.cluster.eth_fabric.topology
        for entry in plan.entries:
            if entry.is_self_migration:
                continue
            try:
                bottleneck = topology.bottleneck_Bps(
                    entry.qemu.node.name, entry.dst_host
                )
            except NetworkError:
                return True  # no route at all (link down mid-outage)
            if bottleneck < floor:
                return True
        return False

    def _crosses_blacklist(self, plan: MigrationPlan) -> bool:
        """True when the plan's footprint touches a blacklisted link.

        Deferred under the same ``"degraded-link"`` reason as the
        viability floor so the request rides the degraded re-probe loop
        and starts once the incident response lifts the blacklist.
        """
        if not self.planner.blacklisted:
            return False
        try:
            links = migration_links(self.cluster, plan)
        except NetworkError:
            return True  # unroutable — treat like a degraded path
        return self.planner.crosses_blacklist(links)

    def _over_budget(self, item: PlannedMigration, loads: Dict[object, float]) -> bool:
        budget_s = self.config.link_budget_s
        if budget_s is None:
            return False
        for dlink, nbytes in item.bytes_by_link.items():
            current = loads.get(dlink, 0.0)
            # An idle link always admits one request — the budget bounds
            # *stacking*, it must not make a big migration infeasible.
            if current > 0 and current + nbytes > budget_s * dlink.capacity_Bps:
                return True
        return False

    def _build_plan(self, request: MigrationRequest) -> MigrationPlan:
        record = request.fleet_job
        qemus = record.qemus
        exclude = set(request.blacklist)
        if request.kind == "fallback":
            hosts = self.placement.pick_packed(
                qemus,
                self.cluster.eth_only_nodes(),
                consolidate_to=request.consolidate_to,
                exclude=exclude,
            )
            attach = False
        elif request.kind == "recovery":
            hosts = self.placement.pick_spread(
                qemus,
                self.cluster.ib_nodes(),
                exclude=exclude,
                need_hca=True,
            )
            attach = True
        elif request.kind == "evacuate":
            hosts = self.placement.pick_spread(
                qemus,
                self._evacuation_candidates(
                    record, exclude, incident_id=request.incident_id
                ),
                exclude=exclude,
                kind="healthy",
            )
            attach = None
        elif request.kind == "spread":
            if not request.dst_hosts:
                raise SchedulerError("spread request needs explicit dst_hosts")
            hosts = [h for h in request.dst_hosts if h not in exclude]
            if len(hosts) < len(request.dst_hosts):
                raise SchedulerError("all explicit destinations are blacklisted")
            attach = None
        else:
            raise FleetError(f"unknown request kind {request.kind!r}")
        return MigrationPlan.build(
            self.cluster, qemus, hosts, attach_ib=attach, label=request.label
        )

    def _evacuation_candidates(
        self, record: FleetJob, exclude, incident_id: Optional[int] = None
    ) -> List:
        """Empty live nodes, current hosts excluded.

        Dead hosts (``node.failed``) never qualify, and hosts the spare arbiter has leased
        to a *different* incident are invisible — that is what keeps two
        overlapping remediations from landing on the same spare.
        """
        current = set(record.hosts())
        leased_away = self.arbiter.leased_to_others(
            incident_id if incident_id is not None else -1
        )
        nodes = []
        for name in sorted(self.cluster.nodes):
            if name in current or name in exclude or name in leased_away:
                continue
            node = self.cluster.node(name)
            if node.vms or node.failed:
                continue
            nodes.append(node)
        return nodes

    # -- execution ----------------------------------------------------------------------

    def _start(self, request: MigrationRequest, item: PlannedMigration) -> None:
        request.status = RUNNING
        request.attempts += 1
        request.started_at = self.env.now
        request.defer_reason = ""
        request.fleet_job.busy = True
        self._running.append(request)
        self._running_footprint[request] = item
        self.store.begin_migration(request, item.plan)
        self.journal.append(
            "request-started", request=request.request_id,
            label=item.plan.label, attempt=request.attempts,
        )
        self.cluster.trace(
            "fleet", "started", request=request.request_id, job=request.job_id,
            label=item.plan.label, attempt=request.attempts,
            concurrency=len(self._running),
        )
        self._procs[request] = self.env.process(
            self._execute(request, item), name=f"fleet.{item.plan.label}"
        )

    def _execute(self, request: MigrationRequest, item: PlannedMigration):
        plan = item.plan
        try:
            try:
                result = yield from self.ninja.execute(
                    request.fleet_job.job, plan
                )
            except ControllerCrashError as err:
                # The control plane died.  No bookkeeping, no retry, no
                # release — a dead orchestrator does nothing; recovery
                # reconstructs the truth from the journal.
                self._mark_crashed(str(err))
                return
            except MigrationAbortedError as err:
                self._finish(request, FAILED, error=f"unrecoverable: {err}")
                return
            except ReproError as err:
                # e.g. the job finished before the trigger landed.
                self._finish(request, FAILED, error=str(err))
                return
            request.result = result
            if result.aborted and not result.committed:
                for entry in plan.entries:
                    if not entry.is_self_migration:
                        request.blacklist.add(entry.dst_host)
                if request.attempts >= request.max_attempts:
                    self._finish(request, ABORTED, error=result.error)
                else:
                    self.cluster.trace(
                        "fleet", "retry_enqueued", request=request.request_id,
                        job=request.job_id, blacklisted=sorted(request.blacklist),
                    )
                    self.admission.submit(request, requeue=True)
            else:
                self._finish(request, COMPLETED)
        finally:
            self._procs.pop(request, None)
            if not self.crashed:
                request.fleet_job.busy = False
                self.store.end_migration(request)
                self.journal.append(
                    "release", request=request.request_id, label=plan.label
                )
                if request in self._running:
                    self._running.remove(request)
                self._running_footprint.pop(request, None)
                if request.status == RUNNING:
                    request.status = PENDING
                self._kick()

    def _finish(self, request: MigrationRequest, status: str, error: str = "") -> None:
        request.status = status
        request.error = error
        request.finished_at = self.env.now
        self.journal.append(
            "request-finished", request=request.request_id, status=status,
        )
        self.cluster.trace(
            "fleet", status, request=request.request_id, job=request.job_id,
            error=error,
        )
        if request.done is not None and not request.done.triggered:
            request.done.succeed(request)
        self._check_settled()

    # -- crash handling -----------------------------------------------------------

    def _mark_crashed(self, error: str) -> None:
        if self.crashed:
            return
        self.crashed = True
        self.crash_error = error
        self.cluster.trace("fleet", "controller_crash", error=error)
        if not self.crash_event.triggered:
            self.crash_event.succeed(self)

    def crash_drained(self) -> Event:
        """Event firing once every sequence process of the crashed
        controller has stopped (they die at their next phase boundary;
        their QEMU precopy streams keep running independently).  Drive
        recovery only after this fires, or it would race the zombies."""
        alive = [p for p in self._procs.values() if p.is_alive]
        if not alive:
            event = Event(self.env)
            event.succeed(self)
            return event
        return self.env.all_of(alive)
