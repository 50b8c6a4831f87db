"""Declarative runbooks: incident class → ordered remediation actions.

Mirrors the alert-storm → diagnosis → runbook pattern of operational
network controllers: each incident class maps to an ordered tuple of
:class:`RunbookStep` entries, and :class:`RunbookExecutor` runs them with
per-action timeout and retry, journaling every step through the shared
:class:`~repro.recovery.journal.MigrationJournal`:

``incident-open``
    Remediation for an incident began (class, links, jobs recorded so a
    successor controller can rebuild the incident from the journal).
``incident-action-intent`` / ``incident-action-commit``
    One journalled ``action`` step, with its crash site
    ``incident.action.<action>`` just after the intent.  After a
    controller crash the successor re-executes *intent-without-commit*
    steps (all actions are idempotent) and **skips committed ones** —
    remediation never double-executes an action.
``incident-resolved``
    The full runbook completed.

Built-in actions (all idempotent):

``blacklist-links``
    Declare the incident's links unusable in the
    :class:`~repro.orchestrator.planner.WavePlanner`.
``switch-postcopy``
    Flip the fleet's migration policy to an adaptive postcopy mode so
    retried/new sequences survive further degradation.
``raise-viability-floor``
    Defer new requests whose path bottleneck sits below the floor.
``evacuate-affected``
    Cancel doomed pending requests in the blast radius and resubmit the
    affected jobs as high-priority evacuations routed around the cut;
    waits for the evacuations to land (``restores_service=True`` steps
    stamp the incident's MTTR).
``evacuate-host``
    Evacuate every job with live VMs on the incident's suspect hosts.
    Hosts that are already dead — or jobs whose VMs died with them —
    are *skipped* (fall-through), not failed: a dead guest cannot be
    parked, so those jobs belong to ``restore-from-checkpoint``.
``restore-from-checkpoint``
    Re-create jobs whose VMs died with a failed host from their last
    *committed* checkpoint generation, on spare capacity leased from
    the :class:`~repro.orchestrator.state.SpareArbiter` (ordered by
    blast radius across overlapping incidents).  Runs the restore as one
    journalled ``restore`` step (``restore-intent`` / ``restore-commit``)
    with crash-injection sites ``incident.restore.intent`` / ``.boot`` /
    ``.commit`` so a successor controller resumes without ever
    double-restoring: committed jobs are skipped, booted-but-uncommitted
    jobs are reconciled, untouched jobs are re-run.
``await-heal``
    Poll until the incident's links are back up and undegraded.
``readmit``
    Lift the blacklist and restore the pre-incident viability floor and
    migration policy.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import FleetError, IncidentError, NetworkError, ReproError
from repro.incident.correlator import REMEDIATING, RESOLVED, Incident
from repro.orchestrator.admission import (
    COMPLETED,
    FAILED,
    PENDING,
    RUNNING,
    MigrationRequest,
)
from repro.sim.process import Interrupt
from repro.vmm.policy import MigrationPolicy
from repro.vmm.vm import RunState

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.cluster import Cluster
    from repro.orchestrator.executor import FleetOrchestrator
    from repro.orchestrator.state import FleetJob
    from repro.recovery.checkpoints import FleetCheckpointService
    from repro.recovery.journal import MigrationJournal

#: Crash-injection sites bracketing the checkpoint-restore path.
RESTORE_INTENT_SITE = "incident.restore.intent"
RESTORE_BOOT_SITE = "incident.restore.boot"
RESTORE_COMMIT_SITE = "incident.restore.commit"


@dataclass(frozen=True)
class RunbookStep:
    """One remediation action with its execution policy."""

    action: str
    params: Dict[str, object] = field(default_factory=dict)
    timeout_s: float = 120.0
    retries: int = 1
    #: The step whose completion restores service (stamps MTTR).
    restores_service: bool = False


#: Incident class → ordered remediation steps.
DEFAULT_RUNBOOK: Dict[str, Tuple[RunbookStep, ...]] = {
    "fiber-cut": (
        RunbookStep("blacklist-links", timeout_s=5.0),
        RunbookStep("switch-postcopy", {"mode": "fallback"}, timeout_s=5.0),
        RunbookStep("raise-viability-floor", {"floor_Bps": 50e6}, timeout_s=5.0),
        RunbookStep("evacuate-affected", timeout_s=300.0, retries=1,
                    restores_service=True),
        RunbookStep("await-heal", {"recheck_s": 1.0, "max_wait_s": 600.0},
                    timeout_s=900.0, retries=0),
        RunbookStep("readmit", timeout_s=5.0),
    ),
    "host-failure": (
        RunbookStep("evacuate-host", timeout_s=300.0, retries=1),
        RunbookStep("restore-from-checkpoint", timeout_s=600.0, retries=1,
                    restores_service=True),
    ),
    "degraded-wan": (
        RunbookStep("switch-postcopy", {"mode": "fallback"}, timeout_s=5.0),
        RunbookStep("raise-viability-floor", {"floor_Bps": 50e6}, timeout_s=5.0,
                    restores_service=True),
        RunbookStep("await-heal", {"recheck_s": 1.0, "max_wait_s": 600.0},
                    timeout_s=900.0, retries=0),
        RunbookStep("readmit", timeout_s=5.0),
    ),
    "congestion": (
        RunbookStep("switch-postcopy", {"mode": "fallback"}, timeout_s=5.0,
                    restores_service=True),
    ),
}


class RunbookExecutor:
    """Executes runbooks with journaled, crash-recoverable steps."""

    def __init__(
        self,
        cluster: "Cluster",
        orchestrator: "FleetOrchestrator",
        journal: Optional["MigrationJournal"] = None,
        runbook: Optional[Dict[str, Tuple[RunbookStep, ...]]] = None,
        checkpoints: Optional["FleetCheckpointService"] = None,
    ) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.orchestrator = orchestrator
        self.journal = journal if journal is not None else orchestrator.journal
        self.runbook = runbook if runbook is not None else DEFAULT_RUNBOOK
        #: Checkpoint service backing ``restore-from-checkpoint``.  May be
        #: None: the restore step then no-ops unless jobs actually need
        #: restoring, in which case it fails loudly.
        self.checkpoints = checkpoints
        #: (incident_id, step_index, action) tuples actually executed by
        #: *this* executor (across executors, a step committed twice is
        #: the invariant checker's ``double-action``).
        self.executed: List[Tuple[int, int, str]] = []
        #: Evacuation requests submitted per incident.
        self.evacuations: Dict[int, List[MigrationRequest]] = {}
        self._saved_floor: Dict[int, object] = {}
        self._saved_policy: Dict[int, object] = {}
        self.actions = {
            "blacklist-links": RunbookExecutor._act_blacklist_links,
            "switch-postcopy": RunbookExecutor._act_switch_postcopy,
            "raise-viability-floor": RunbookExecutor._act_raise_floor,
            "evacuate-affected": RunbookExecutor._act_evacuate_affected,
            "evacuate-host": RunbookExecutor._act_evacuate_host,
            "restore-from-checkpoint":
                RunbookExecutor._act_restore_from_checkpoint,
            "await-heal": RunbookExecutor._act_await_heal,
            "readmit": RunbookExecutor._act_readmit,
        }

    # -- execution ---------------------------------------------------------------

    def execute(self, incident: Incident):
        """Generator: run (or resume) the incident's runbook to completion.

        Raises :class:`IncidentError` when a step exhausts its retries;
        lets :class:`~repro.errors.ControllerCrashError` propagate — a
        dead controller journals nothing further, and a successor calls
        :meth:`execute` again to resume from the last committed step.
        """
        steps = self.runbook.get(incident.klass)
        if steps is None:
            raise IncidentError(
                f"no runbook for incident class {incident.klass!r}"
            )
        iid = incident.incident_id
        if self.journal.fold("incident", iid).commit is not None:
            incident.status = RESOLVED
            return incident
        committed = [
            self.journal.fold("action", (iid, index)).commit is not None
            for index in range(len(steps))
        ]
        if not any(committed):
            self.journal.append(
                "incident-open",
                incident=incident.incident_id,
                klass=incident.klass,
                links=sorted(incident.links),
                hosts=sorted(incident.hosts),
                suspect_hosts=sorted(incident.suspect_hosts),
                jobs=sorted(incident.jobs),
                opened_at=incident.opened_at,
                first_anomaly_at=incident.first_anomaly_at,
            )
        incident.status = REMEDIATING
        self.cluster.trace(
            "incident", "remediation_started",
            incident=incident.incident_id, klass=incident.klass,
            resumed_from_step=sum(committed),
        )
        for index, step in enumerate(steps):
            if committed[index]:
                incident.actions.append(f"{step.action} (recovered: skipped)")
                continue
            # A controller death at the crash site leaves intent without
            # commit, so the successor re-runs this step.
            yield from self.journal.step(
                "action", self._run_step(incident, index, step),
                offer=self.cluster.faults.perturb,
                sites=(f"incident.action.{step.action}", None),
                incident=iid, step=index, action=step.action,
            )
            self.executed.append((incident.incident_id, index, step.action))
            incident.actions.append(step.action)
            if step.restores_service and incident.remediated_at is None:
                incident.remediated_at = self.env.now
                self.cluster.trace(
                    "incident", "service_restored",
                    incident=incident.incident_id,
                    mttr_s=round(incident.mttr_s or 0.0, 3),
                )
        incident.status = RESOLVED
        incident.resolved_at = self.env.now
        self.journal.append("incident-resolved", incident=incident.incident_id)
        self.cluster.trace(
            "incident", "resolved", incident=incident.incident_id,
            klass=incident.klass,
        )
        return incident

    def _run_step(self, incident: Incident, index: int, step: RunbookStep):
        if step.action not in self.actions:
            raise IncidentError(f"unknown runbook action {step.action!r}")
        last_err = ""
        for _attempt in range(step.retries + 1):
            proc = self.env.process(
                self._action_proc(incident, step),
                name=f"incident.{incident.incident_id}.{step.action}",
            )
            timeout = self.env.timeout(step.timeout_s)
            try:
                yield self.env.any_of([proc, timeout])
            except ReproError as err:
                last_err = str(err)
                continue
            if proc.is_alive:  # the timeout won the race
                proc.interrupt("runbook step timeout")
                last_err = f"timed out after {step.timeout_s:g}s"
                continue
            return
        raise IncidentError(
            f"runbook action {step.action!r} (step {index}) failed after "
            f"{step.retries + 1} attempt(s): {last_err}"
        )

    def _action_proc(self, incident: Incident, step: RunbookStep):
        fn = self.actions[step.action]
        try:
            result = fn(self, incident, dict(step.params))
            if result is not None:
                yield from result
            else:
                yield self.env.timeout(0.0)
        except Interrupt:
            return

    # -- actions -----------------------------------------------------------------

    def _act_blacklist_links(self, incident: Incident, params: dict) -> None:
        self.orchestrator.planner.blacklist_links(sorted(incident.links))
        self.cluster.trace(
            "incident", "links_blacklisted",
            incident=incident.incident_id, links=sorted(incident.links),
        )

    def _act_switch_postcopy(self, incident: Incident, params: dict) -> None:
        mode = str(params.get("mode", "fallback"))
        self._saved_policy.setdefault(
            incident.incident_id, self.orchestrator.ninja.migration_policy
        )
        self.orchestrator.ninja.migration_policy = MigrationPolicy.adaptive(
            postcopy=mode
        )
        self.cluster.trace(
            "incident", "postcopy_switched",
            incident=incident.incident_id, mode=mode,
        )

    def _act_raise_floor(self, incident: Incident, params: dict) -> None:
        floor = float(params.get("floor_Bps", 50e6))  # type: ignore[arg-type]
        config = self.orchestrator.config
        self._saved_floor.setdefault(
            incident.incident_id, config.viability_floor_Bps
        )
        config.viability_floor_Bps = max(config.viability_floor_Bps or 0.0, floor)
        self.cluster.trace(
            "incident", "viability_floor_raised",
            incident=incident.incident_id, floor_Bps=config.viability_floor_Bps,
        )

    def _act_evacuate_affected(self, incident: Incident, params: dict):
        """Cancel doomed requests, evacuate their jobs around the cut."""
        orch = self.orchestrator
        jobs = set(incident.jobs)
        for request in orch.affected_requests(sorted(incident.links)):
            jobs.add(request.job_id)
            if request.status == PENDING:
                orch.cancel(
                    request, reason=f"incident-{incident.incident_id}: "
                    f"{incident.klass} severed the planned path",
                )
            elif request.status == RUNNING:
                # The transactional abort path will roll it back; stop it
                # from retrying a destination the evacuation supersedes.
                request.max_attempts = request.attempts
        # Requests that already failed ("no feasible placement") before
        # remediation won the race still leave their jobs stranded.
        for request in orch.requests:
            if request.status == FAILED and request.job_id in incident.jobs:
                jobs.add(request.job_id)
        yield from self._evacuate(
            incident, sorted(jobs), cut_links=incident.links
        )
        yield self.env.timeout(0.0)

    def _act_evacuate_host(self, incident: Incident, params: dict):
        """Drain live jobs off the suspect hosts; fall through cleanly.

        A host that already died cannot be drained, and a job whose VMs
        died with it cannot be parked — those targets are *skipped* (the
        runbook proceeds to ``restore-from-checkpoint``), never failed.
        """
        skipped: List[str] = []
        job_ids: List[str] = []
        for host in sorted(incident.suspect_hosts or incident.hosts):
            if self.cluster.node(host).failed:
                skipped.append(f"{host}:host-failed")
                continue
            for record in self.orchestrator.store.jobs_on(host):
                if record.job_id not in job_ids:
                    job_ids.append(record.job_id)
        yield from self._evacuate(incident, job_ids, skipped=skipped)

    def _evacuate(
        self,
        incident: Incident,
        job_ids: Sequence[str],
        cut_links: Optional[Set[str]] = None,
        skipped: Sequence[str] = (),
    ):
        """Evacuate ``job_ids`` onto leased spares and await the landing.

        A job that already has an evacuation pending is left to it.  A
        job with a SHUTOFF VM is skipped: its guests died with their
        host, cannot be parked, and belong to ``restore-from-checkpoint``.
        The rest lease one spare slot per VM, get one ``evacuate`` request
        each (routed around ``cut_links`` when given), and the step
        waits for every evacuation this incident submitted; any that did
        not complete raises :class:`IncidentError`.
        """
        orch = self.orchestrator
        skipped = list(skipped)
        to_evacuate: List[str] = []
        for job_id in job_ids:
            if any(
                r.kind == "evacuate" and not r.terminal and r.job_id == job_id
                for r in orch.requests
            ):
                continue
            if any(
                q.vm.state is RunState.SHUTOFF
                for q in orch.store.job(job_id).qemus
            ):
                skipped.append(f"{job_id}:vm-down")
                continue
            to_evacuate.append(job_id)
        if skipped:
            self.cluster.trace(
                "incident", "evacuation_fell_through",
                incident=incident.incident_id, skipped=skipped,
            )
        submitted = self.evacuations.setdefault(incident.incident_id, [])
        yield from self._lease_spares(incident, to_evacuate)
        try:
            for job_id in to_evacuate:
                request = orch.submit(
                    job_id, kind="evacuate",
                    priority=orch.config.evacuation_priority,
                    incident_id=incident.incident_id,
                )
                if cut_links is not None:
                    request.blacklist.update(
                        self._unreachable_hosts(job_id, cut_links)
                    )
                submitted.append(request)
            if to_evacuate:
                self.cluster.trace(
                    "incident", "evacuations_submitted",
                    incident=incident.incident_id, jobs=to_evacuate,
                    requests=[r.request_id for r in submitted],
                )
            for request in list(submitted):
                if not request.terminal and request.done is not None:
                    yield request.done
            bad = [r for r in submitted if r.status != COMPLETED]
            if bad:
                raise IncidentError(
                    f"evacuation failed for {sorted(r.job_id for r in bad)}"
                )
        finally:
            orch.arbiter.release(incident.incident_id)

    def _act_restore_from_checkpoint(self, incident: Incident, params: dict):
        """Restore dead jobs from their last committed checkpoint.

        Idempotent and crash-recoverable: jobs with a ``restore-commit``
        record for this incident are skipped, restores a dead predecessor
        finished booting but never committed are reconciled into the
        journal, and everything else re-runs from scratch on spare hosts
        leased through the arbiter.
        """
        orch = self.orchestrator
        self._reconcile_restores(incident)
        targets = self._jobs_needing_restore(incident)
        if not targets:
            yield self.env.timeout(0.0)
            return
        if self.checkpoints is None:
            raise IncidentError(
                f"jobs {sorted(r.job_id for r in targets)} lost VMs but no "
                "checkpoint service is attached — nothing to restore from"
            )
        for record in targets:
            yield from self._restore_one(incident, record, params)
        orch.nudge()

    def _restore_one(self, incident: Incident, record: "FleetJob", params: dict):
        orch = self.orchestrator
        service = self.checkpoints
        iid = incident.incident_id
        generation = self.journal.last_committed_checkpoint(record.job_id)
        if generation is None:
            raise IncidentError(
                f"{record.job_id}: no committed checkpoint generation — "
                "the job's state died with the host"
            )
        gen_no = int(generation.get("generation", -1))
        # ``spare_pattern`` restricts restore targets to designated spare
        # hosts (e.g. "sp*") instead of any host that happens to be empty.
        pattern = str(params.get("spare_pattern", "*"))
        candidates = [
            h for h in self._spare_candidates(incident)
            if fnmatch.fnmatch(h, pattern)
        ]
        lease = candidates[: len(record.qemus)] or candidates
        if not lease:
            raise IncidentError(
                f"{record.job_id}: no spare capacity available for restore"
            )
        hosts = yield from orch.arbiter.acquire(
            iid, lease,
            blast_radius=len(incident.jobs) + len(incident.request_ids),
        )
        rpo_s = max(
            incident.first_anomaly_at - float(generation.get("consistency_at", 0.0)),
            0.0,
        )

        def boot():
            # The restored job supersedes any in-flight migration work.
            for request in orch.requests:
                if request.fleet_job is record and not request.terminal:
                    if request.status == PENDING:
                        orch.cancel(
                            request,
                            reason=f"incident-{iid}: superseded by restore",
                        )
                    elif request.status == RUNNING:
                        request.max_attempts = request.attempts
            yield from self.cluster.faults.perturb(RESTORE_BOOT_SITE)
            outcome = yield from service.restore_job(
                record, generation, sorted(hosts), name_tag=f"+i{iid}"
            )
            orch.store.replace_job(record.job_id, outcome.job, outcome.qemus)
            if record.rank_main is not None:
                outcome.job.launch(record.rank_main)
            return {
                "vms": sorted(q.vm.name for q in outcome.qemus),
                "adopted": sorted(outcome.adopted),
                "rpo_s": round(rpo_s, 6),
                "rto_s": round(self.env.now - incident.first_anomaly_at, 6),
            }

        def offer(site: str):
            yield from self.cluster.faults.perturb(site)
            if site == RESTORE_COMMIT_SITE:
                self.cluster.fencing.check(service.epoch, actor="restore")

        try:
            yield from self.journal.step(
                "restore", boot(), offer=offer,
                sites=(RESTORE_INTENT_SITE, RESTORE_COMMIT_SITE),
                incident=iid, job=record.job_id, generation=gen_no,
                hosts=sorted(hosts), epoch=service.epoch,
            )
            rto_s = self.env.now - incident.first_anomaly_at
            self.cluster.trace(
                "incident", "job_restored", incident=iid, job=record.job_id,
                generation=gen_no, hosts=sorted(hosts),
                rpo_s=round(rpo_s, 3), rto_s=round(rto_s, 3),
            )
        finally:
            orch.arbiter.release(iid)

    def _jobs_needing_restore(self, incident: Incident) -> List["FleetJob"]:
        """Blast-radius jobs with dead VMs and no committed restore."""
        orch = self.orchestrator
        out: List["FleetJob"] = []
        for host in sorted(incident.suspect_hosts or incident.hosts):
            for record in orch.store.jobs_on(host):
                if record in out:
                    continue
                if self.journal.fold(
                    "restore", (incident.incident_id, record.job_id)
                ).commit is not None:
                    continue
                if any(
                    q.vm.state is RunState.SHUTOFF or q.node.failed
                    for q in record.qemus
                ):
                    out.append(record)
        return out

    def _reconcile_restores(self, incident: Incident) -> None:
        """Commit restores a dead predecessor booted but never journaled.

        A controller crash between the restored job launching and the
        ``restore-commit`` append leaves intent-without-commit with the
        new VMs already running.  Re-running the restore would double it;
        the successor instead writes the missing commit (``recovered``).
        """
        orch = self.orchestrator
        for step in self.journal.steps_of("restore"):
            if step.key[0] != incident.incident_id or not step.open:  # type: ignore[index]
                continue
            payload = step.intents[0].payload
            job_id = str(payload.get("job"))
            try:
                record = orch.store.job(job_id)
            except FleetError:
                continue
            if any(
                q.vm.state is not RunState.RUNNING or q.node.failed
                for q in record.qemus
            ):
                continue  # nothing booted — the restore simply re-runs
            generation = self.journal.last_committed_checkpoint(job_id)
            rpo_s = max(
                incident.first_anomaly_at
                - float((generation or {}).get("consistency_at", 0.0)),
                0.0,
            )
            self.journal.append(
                "restore-commit",
                incident=incident.incident_id, job=job_id,
                generation=int(payload.get("generation", -1)),
                hosts=list(payload.get("hosts", ())),
                vms=sorted(q.vm.name for q in record.qemus),
                adopted=sorted(q.vm.name for q in record.qemus),
                rpo_s=round(rpo_s, 6),
                rto_s=round(self.env.now - incident.first_anomaly_at, 6),
                epoch=payload.get("epoch"),
                recovered=True,
            )
            self.cluster.trace(
                "incident", "restore_reconciled",
                incident=incident.incident_id, job=job_id,
            )

    def _spare_candidates(self, incident: Incident) -> List[str]:
        """Empty, healthy, unreserved hosts not leased to another incident."""
        orch = self.orchestrator
        foreign = orch.arbiter.leased_to_others(incident.incident_id)
        out: List[str] = []
        for name in sorted(self.cluster.nodes):
            node = self.cluster.node(name)
            if node.failed or node.vms or name in foreign:
                continue
            if name in incident.suspect_hosts:
                continue
            if orch.store.reserved_bytes(name) > 0:
                continue
            out.append(name)
        return out

    def _lease_spares(self, incident: Incident, job_ids: List[str]):
        """Lease one spare slot per VM being moved (all-or-nothing).

        Serialises this incident's landing zone against overlapping
        incidents; released by the caller once the VMs occupy (or no
        longer need) the spares.  No-op when nothing is moving or no
        spares exist — ordinary placement still applies.
        """
        orch = self.orchestrator
        need = sum(
            len(orch.store.job(job_id).qemus) for job_id in job_ids
        )
        lease = self._spare_candidates(incident)[:need]
        if lease:
            yield from orch.arbiter.acquire(
                incident.incident_id, lease,
                blast_radius=len(incident.jobs) + len(incident.request_ids),
            )
        else:
            yield self.env.timeout(0.0)

    def _act_await_heal(self, incident: Incident, params: dict):
        recheck_s = float(params.get("recheck_s", 1.0))  # type: ignore[arg-type]
        max_wait_s = float(params.get("max_wait_s", 600.0))  # type: ignore[arg-type]
        waited = 0.0
        while not self._links_healthy(incident.links):
            if waited >= max_wait_s:
                raise IncidentError(
                    f"links {sorted(incident.links)} did not heal within "
                    f"{max_wait_s:g}s"
                )
            yield self.env.timeout(recheck_s)
            waited += recheck_s
        self.cluster.trace(
            "incident", "links_healed",
            incident=incident.incident_id, links=sorted(incident.links),
            waited_s=round(waited, 3),
        )

    def _act_readmit(self, incident: Incident, params: dict) -> None:
        orch = self.orchestrator
        orch.planner.unblacklist_links(sorted(incident.links))
        if incident.incident_id in self._saved_floor:
            orch.config.viability_floor_Bps = self._saved_floor.pop(
                incident.incident_id
            )  # type: ignore[assignment]
        if incident.incident_id in self._saved_policy:
            orch.ninja.migration_policy = self._saved_policy.pop(
                incident.incident_id
            )  # type: ignore[assignment]
        orch.nudge()
        self.cluster.trace(
            "incident", "readmitted",
            incident=incident.incident_id, links=sorted(incident.links),
        )

    # -- helpers -----------------------------------------------------------------

    def _links_healthy(self, names) -> bool:
        fabric = self.cluster.eth_fabric
        if fabric is None:
            return True
        for link in fabric.topology.links():
            if link.name in names and (not link.up or link.degraded):
                return False
        return True

    def _unreachable_hosts(self, job_id: str, cut_links) -> Set[str]:
        """Hosts whose path from the job would cross the severed links."""
        fabric = self.cluster.eth_fabric
        if fabric is None:
            return set()
        topology = fabric.topology
        record = self.orchestrator.store.job(job_id)
        srcs = record.hosts()
        unreachable: Set[str] = set()
        for dst in self.cluster.nodes:
            if dst in srcs:
                continue
            for src in srcs:
                try:
                    path = topology.path(src, dst)
                except NetworkError:
                    unreachable.add(dst)
                    break
                if any(dlink.link.name in cut_links for dlink in path):
                    unreachable.add(dst)
                    break
        return unreachable


__all__ = [
    "RunbookStep",
    "RunbookExecutor",
    "DEFAULT_RUNBOOK",
    "RESTORE_INTENT_SITE",
    "RESTORE_BOOT_SITE",
    "RESTORE_COMMIT_SITE",
]
