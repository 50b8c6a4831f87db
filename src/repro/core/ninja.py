"""The Ninja migration orchestrator (transactional).

Executes the full interconnect-transparent migration sequence of
Figures 4/5 against a running MPI job:

1. **coordination** — the cloud scheduler's trigger reaches every rank;
   CRCP quiesces traffic; SymVirt coordinators park the VMs (round A);
2. **detach** — agents ``device_del`` the VMM-bypass HCAs and drive the
   ACPI eject to completion;
3. signal / re-park (round B, instantaneous — the coordinators' continue
   callback waits immediately);
4. **migration** — QEMU precopy of every VM in parallel (single pass:
   the guests are parked, nothing dirties memory);
5. **attach** — agents ``device_add`` the destination HCAs where the plan
   says so, plus the guest-side **confirm** round;
6. signal — guests resume; coordinators confirm **link-up** (~30 s when
   an IB device was attached), then the MPI runtime reconstructs BTLs and
   transport switches per exclusivity.

Returns a :class:`NinjaResult` whose breakdown matches the stacked bars
of Figures 6–8 and the columns of Table II.

Failure semantics
-----------------

The sequence is a *transaction* over guest-visible state.  Before each
risky phase the orchestrator journals a compensation; a mid-phase
failure (``SymVirtError``/``MigrationError``/``NetworkError``
/``QmpError``/:class:`~repro.errors.PhaseTimeoutError`) triggers
**rollback**: the journalled compensations unwind in LIFO order,
``detach-stray`` → ``migrate-back`` → ``reattach-origin`` →
``resume-guests``, each defined once in :mod:`repro.recovery.undo` and
fed from the same journal fold a crash successor reads.

Transient errors (QMP RTT loss, migration-socket resets — anything in
``TRANSIENT_ERRORS`` except :class:`~repro.errors.MigrationBlockedError`)
are first absorbed by bounded retry with exponential backoff
(:class:`~repro.core.faults.RetryPolicy`); rollback only starts once the
attempts are exhausted or a non-transient error fires.

The **commit point** is the second ``signal`` (guests resumed on their
destinations).  A link-up failure after that cannot be rolled back
without re-parking the job, so the sequence *degrades* instead: HCAs
whose port never trained are ejected so the guests fall back to the
Ethernet path, and the result reports ``status="aborted"`` with
``committed=True``.

Faults for testing are injected through the cluster-wide
:class:`~repro.core.faults.FaultInjector` at sites ``ninja.<phase>``
(plus the lower-level ``qmp.*`` / ``hotplug.*`` / ``migration.stream``
sites the phases drive).

Crash semantics
---------------

Every sequence writes a **write-ahead journal**
(:class:`~repro.recovery.journal.MigrationJournal`): each phase is one
journalled step, with compensation-stack and terminal records in
between.  Its ``controller.crash.<phase>.intent`` site fires just after
the ``intent`` record, ``.commit`` just before the ``commit`` record (the
journal's site rule); the hand-written ``signal``, ``resume``,
``commit-point``, ``postcopy`` and ``migration.inflight`` boundaries
place their own sites.  An armed crash raises
:class:`~repro.errors.ControllerCrashError` (deliberately not a
``ReproError``, so neither retry nor rollback runs: a dead controller
does nothing) and sets :attr:`NinjaMigration.crashed`, which kills every
sibling sequence of the same controller at its next boundary.  The
journal plus observed VMM/agent state is exactly what
:class:`~repro.recovery.recovery.RecoveryManager` needs to roll the
sequence forward (past the commit point) or back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.core.faults import RetryPolicy
from repro.core.metrics import OverheadBreakdown
from repro.core.phases import PhaseTimeline
from repro.core.plan import MigrationPlan
from repro.errors import (
    ControllerCrashError,
    MigrationAbortedError,
    MigrationBlockedError,
    MigrationError,
    NetworkError,
    PhaseTimeoutError,
    QmpError,
    ReproError,
    SymVirtError,
)
from repro.recovery import undo
from repro.recovery.journal import MigrationJournal
from repro.symvirt.controller import Controller

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.cluster import Cluster
    from repro.mpi.runtime import MpiJob
    from repro.vmm.migration import MigrationStats
    from repro.vmm.policy import MigrationPolicy

#: The six phases of one sequence, in execution order.
PHASES = (
    "coordination",
    "detach",
    "migration",
    "attach",
    "confirm",
    "linkup",
)

#: Error classes the retry loop treats as transient.  A
#: :class:`~repro.errors.MigrationBlockedError` is excluded even though it
#: is a ``MigrationError`` — a blocker is a planning bug, not socket
#: weather, and retrying it can never succeed.
TRANSIENT_ERRORS = (QmpError, MigrationError, NetworkError)


@dataclass
class NinjaResult:
    """Outcome of one Ninja migration sequence."""

    plan: MigrationPlan
    breakdown: OverheadBreakdown
    timeline: PhaseTimeline
    migration_stats: Dict[str, "MigrationStats"] = field(default_factory=dict)
    started_at: float = 0.0
    finished_at: float = 0.0
    #: ``"completed"`` or ``"aborted"``.
    status: str = "completed"
    #: Phase whose failure aborted the sequence (``None`` on success).
    failed_phase: Optional[str] = None
    #: String form of the error that aborted the sequence.
    error: str = ""
    #: Per-phase retry counts (phases absent from the dict never retried).
    retries: Dict[str, int] = field(default_factory=dict)
    #: Compensation/degrade actions executed, in execution order.
    rollback_actions: List[str] = field(default_factory=list)
    #: True once the guests were resumed at their destinations — an abort
    #: after this point degraded (VMs stay put, dead HCAs ejected) rather
    #: than rolled back.
    committed: bool = False
    #: Journal id of this sequence (``label@N``).
    migration_id: str = ""

    @property
    def aborted(self) -> bool:
        return self.status == "aborted"

    @property
    def total_s(self) -> float:
        return self.finished_at - self.started_at


class NinjaMigration:
    """Orchestrates Ninja migrations on one cluster.

    Parameters
    ----------
    retry_policy:
        Bounded retry with exponential backoff applied to transient
        per-phase failures.  Defaults to 3 attempts, 0.5 s base delay.
    phase_timeout_s:
        Optional per-phase wall-clock budgets (phase name → simulated
        seconds).  A phase that overruns is interrupted and aborts the
        sequence with :class:`~repro.errors.PhaseTimeoutError` (timeouts
        are deliberately non-retryable: a stuck phase left work in an
        unknown state, so the only safe continuation is rollback).
    """

    def __init__(
        self,
        cluster: "Cluster",
        retry_policy: Optional[RetryPolicy] = None,
        phase_timeout_s: Optional[Dict[str, float]] = None,
        journal: Optional[MigrationJournal] = None,
        migration_policy: Optional["MigrationPolicy"] = None,
    ) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.phase_timeout_s: Dict[str, float] = dict(phase_timeout_s or {})
        #: Degraded-path escalation knobs handed to every QEMU migration
        #: this controller starts (None = plain precopy).
        self.migration_policy = migration_policy
        #: Write-ahead journal of every sequence this controller runs.
        self.journal = (
            journal if journal is not None else MigrationJournal()
        ).bind(cluster.env)
        #: Set once a ``controller.crash.*`` fault fires; every sibling
        #: sequence of this controller dies at its next phase boundary.
        self.crashed = False
        #: Completed sequences (most recent last).
        self.history: list[NinjaResult] = []

    # -- helpers -------------------------------------------------------------------

    def _guard(self, label: str, point: str) -> None:
        """Controller-liveness checkpoint at a journal boundary.

        A controller that dies here writes nothing more: no commit record
        follows, so the journal can lag the world (an action landed but
        its record did not) but never lead it, which is the invariant
        recovery's reconciliation relies on.
        """
        if self.crashed:
            raise ControllerCrashError(f"controller dead at {point} ({label})")
        faults = self.cluster.faults
        if not faults.specs:
            return
        try:
            faults.maybe_fail(f"controller.crash.{point}")
        except ControllerCrashError:
            self.crashed = True
            self.cluster.trace("ninja", "controller_crash", label=label, point=point)
            raise
        except ReproError as err:
            # Any armed error at a crash site means "the controller died
            # here" — normalise it so nothing downstream retries it.
            self.crashed = True
            self.cluster.trace("ninja", "controller_crash", label=label, point=point)
            raise ControllerCrashError(
                f"controller crashed at {point} ({label}): {err}"
            ) from err

    def _with_timeout(self, phase: str, body):
        """Drive ``body`` (a generator), bounded by the phase's budget."""
        budget = self.phase_timeout_s.get(phase)
        if budget is None:
            yield from body
            return
        proc = self.env.process(body, name=f"ninja.{phase}")
        clock = self.env.timeout(budget)
        yield self.env.any_of([proc, clock])  # re-raises if the body failed
        if proc.is_alive:
            proc.interrupt(f"phase {phase!r} timed out")
            raise PhaseTimeoutError(phase, budget)

    # -- the sequence -----------------------------------------------------------------

    def execute(self, job: "MpiJob", plan: MigrationPlan, request_checkpoint: bool = True):
        """Run the sequence (generator — drive from a simulation process).

        ``request_checkpoint=False`` lets callers that already delivered
        the trigger (e.g. a cloud-scheduler event process) skip step 0.

        Mid-phase failures roll the transaction back (or degrade it, past
        the commit point) and return an *aborted* :class:`NinjaResult`
        rather than raising; :class:`~repro.errors.MigrationAbortedError`
        is raised only when the rollback itself fails — the one state the
        orchestrator cannot make safe on its own.
        """
        env = self.env
        plan.validate()
        timeline = PhaseTimeline()
        t0 = env.now
        ctl = Controller(self.cluster, plan.qemus)
        faults = self.cluster.faults
        tag = plan.detach_tag
        policy = self.retry_policy

        #: Per-VM migration stats; bound before any phase so an abort in
        #: an early phase still builds a result (regression: ``stats``
        #: used to be assigned inside the migration phase only).
        stats: Dict[str, "MigrationStats"] = {}
        retries: Dict[str, int] = {}
        #: Phase currently executing (for abort attribution).
        current_phase: List[Optional[str]] = [None]
        rollback_actions: List[str] = []

        # What the world looked like before the transaction started.
        origin = {q.vm.name: q.node.name for q in plan.qemus}
        had_attached = {a.qemu.vm.name: a.has_attached(tag) for a in ctl.agents}

        journal = self.journal
        mid = journal.begin_sequence(
            plan, origin=origin, had_attached=had_attached,
            request_checkpoint=request_checkpoint,
        )

        # Migration noise dilates hotplug primitives on real moves (Fig. 6).
        noise = (
            self.cluster.calibration.migration_noise_factor
            if plan.is_node_to_node
            else 1.0
        )
        for qemu in plan.qemus:
            qemu.hotplug.noise_factor = noise

        # -- phase bodies (closures over the transaction state) ------------------

        def coordination_body():
            yield from faults.perturb("ninja.coordination")
            yield from ctl.wait_all()

        def detach_body():
            # Idempotent under retry: device_detach skips agents that
            # already lost the device on an earlier attempt.
            yield from faults.perturb("ninja.detach")
            yield from ctl.device_detach(tag)

        def migration_body():
            yield from faults.perturb("ninja.migration")
            # Skip VMs whose migration already completed on an earlier
            # attempt — ``stats`` accumulates even across failed barriers.
            pending = {
                name: dst
                for name, dst in plan.mapping.items()
                if name not in stats or stats[name].status != "completed"
            }
            if pending:
                # Async start + explicit barrier so a controller crash
                # can land *mid-precopy*: the QEMU streams are their own
                # simulation processes and run to completion with the
                # controller dead — exactly the orphaned-state recovery
                # must reconcile.
                barrier = ctl.migration_async(
                    mapping=pending, results=stats, policy=self.migration_policy
                )
                self._guard(plan.label, "migration.inflight")
                yield barrier
                self.cluster.trace("symvirt", "migration", mapping=pending)
            # Postcopy switchovers are per-VM commit points: once a VM's
            # execution moved, the origin holds no runnable image and the
            # move can never be compensated.  Journal them so recovery
            # rolls these VMs *forward* even before the sequence-level
            # commit point.  The crash guard sits before the record — a
            # controller dying here leaves the switchover observable in
            # the world but absent from the journal (journal lags world),
            # and recovery's roll-back path handles the completed drain.
            switched = sorted(
                name for name, vm_stats in stats.items() if vm_stats.mode == "postcopy"
            )
            if switched:
                journalled = journal.snapshot(mid).postcopy_vms
                switched = [name for name in switched if name not in journalled]
            if switched:
                self._guard(plan.label, "postcopy.intent")
                journal.append("postcopy-switchover", mid=mid, vms=switched)
                self._guard(plan.label, "postcopy.commit")

        def attach_body():
            yield from faults.perturb("ninja.attach")
            pending = [
                (agent, entry)
                for agent, entry in zip(ctl.agents, plan.entries)
                if entry.attach_ib and not agent.has_attached(tag)
            ]
            if pending:
                yield ctl._parallel(
                    agent.device_attach(host=entry.attach_bdf, tag=tag)
                    for agent, entry in pending
                )
            # Verify every attach left a confirmable port; a bad attach
            # rolls the whole sequence back.
            for agent, entry in zip(ctl.agents, plan.entries):
                if entry.attach_ib:
                    assignment = agent.qemu.assignments.get(tag)
                    if assignment is None or assignment.function.port is None:
                        raise SymVirtError(
                            f"{agent.qemu.vm.name}: attach left no port to confirm"
                        )

        def confirm_body():
            yield from faults.perturb("ninja.confirm")
            yield ctl._parallel(agent.qemu.hotplug.confirm() for agent in ctl.agents)

        # -- undo: the journal's own fold drives it ---------------------------------

        def undo_sequence(cause: BaseException, snap):
            """Roll back before the commit point, degrade after it."""
            if snap.committed:
                self.cluster.trace("ninja", "degrade_begin", label=plan.label, error=str(cause))
            else:
                self.cluster.trace(
                    "ninja",
                    "rollback_begin",
                    label=plan.label,
                    phase=current_phase[0],
                    error=str(cause),
                )
            timeline.begin("rollback", env.now)
            try:
                yield from undo.settle(env, plan.qemus)
                undo.finish_partial_ejects(self.cluster, plan.qemus, tag)
                if snap.committed:
                    yield from undo.roll_forward(ctl, snap, journal, rollback_actions)
                else:
                    yield from undo.unwind(ctl, snap, journal, rollback_actions)
            finally:
                timeline.end("rollback", env.now)

        # -- phase runner ---------------------------------------------------------

        def attempts(name: str, body_factory: Callable[[], object]):
            current_phase[0] = name
            timeline.begin(name, env.now)
            attempt = 0
            try:
                while True:
                    try:
                        yield from self._with_timeout(name, body_factory())
                    except MigrationBlockedError:
                        raise
                    except TRANSIENT_ERRORS as err:
                        if attempt + 1 >= policy.max_attempts:
                            raise
                        delay = policy.delay(attempt, self.cluster.rng)
                        retries[name] = retries.get(name, 0) + 1
                        self.cluster.trace(
                            "ninja",
                            "retry",
                            label=plan.label,
                            phase=name,
                            attempt=attempt + 1,
                            backoff_s=round(delay, 6),
                            error=str(err),
                        )
                        yield env.timeout(delay)
                        yield from undo.settle(env, plan.qemus)
                        attempt += 1
                    else:
                        return
            finally:
                timeline.end(name, env.now)

        def run_phase(name: str, body_factory: Callable[[], object]):
            """One journalled phase: intent, the body under retry, commit."""
            return journal.step(
                "phase", attempts(name, body_factory),
                offer=lambda site: self._guard(plan.label, site),
                sites=(f"{name}.intent", f"{name}.commit"),
                mid=mid, phase=name,
            )

        # -- drive the transaction -----------------------------------------------

        try:
            try:
                # Step 0 happens before anything is parked or detached —
                # a failed trigger needs no rollback and is re-raised.
                if request_checkpoint:
                    job.request_checkpoint()

                # -- 1. coordination: quiesce + park (round A) -----------
                journal.append("compensation", mid=mid, action="resume-guests")
                yield from run_phase("coordination", coordination_body)

                # -- 2. detach -------------------------------------------
                journal.append("compensation", mid=mid, action="reattach-origin")
                yield from run_phase("detach", detach_body)

                # -- 3. round A → round B --------------------------------
                self._guard(plan.label, "signal.intent")
                yield from ctl.signal()
                journal.append("signal", mid=mid, round=1)
                self._guard(plan.label, "signal.commit")
                yield from ctl.wait_all()

                # -- 4. migration ----------------------------------------
                journal.append("compensation", mid=mid, action="migrate-back")
                yield from run_phase("migration", migration_body)

                # -- 5. attach + confirm ---------------------------------
                journal.append("compensation", mid=mid, action="detach-stray")
                yield from run_phase("attach", attach_body)
                yield from run_phase("confirm", confirm_body)

                # Collect link-up events before waking the guests.
                linkup_events = []
                for agent, entry in zip(ctl.agents, plan.entries):
                    if entry.attach_ib:
                        assignment = agent.qemu.assignments[tag]
                        linkup_events.append(assignment.function.port.wait_active())

                # -- 6. resume: THE COMMIT POINT -------------------------
                # No crash site sits between the second signal and its
                # commit-point record: the write closes the uncertainty
                # window by construction.  (Recovery still cross-checks
                # the observed park state, belt and braces.)
                self._guard(plan.label, "resume.intent")
                journal.append("intent", mid=mid, phase="resume")
                yield from ctl.signal()
                journal.append("commit-point", mid=mid)
                self._guard(plan.label, "commit-point.commit")

                def linkup_body():
                    yield from faults.perturb("ninja.linkup")
                    if linkup_events:
                        yield env.all_of(linkup_events)

                yield from run_phase("linkup", linkup_body)

                yield from ctl.quit()
            except ReproError as err:
                snap = journal.snapshot(mid)
                committed = snap.committed
                if not snap.compensations:
                    # Failed before the transaction opened (trigger path).
                    journal.append("aborted", mid=mid, phase="trigger", error=str(err))
                    raise
                failed_phase = current_phase[0]
                self.cluster.trace(
                    "ninja",
                    "phase_failed",
                    label=plan.label,
                    phase=failed_phase,
                    error=str(err),
                    kind=type(err).__name__,
                )
                try:
                    yield from undo_sequence(err, snap)
                except ReproError as rollback_err:
                    # A failed rollback is not a settled outcome: VMs may
                    # be split across hosts or still parked.  The flag
                    # keeps the sequence on the recovery work list.
                    journal.append(
                        "aborted", mid=mid, phase=failed_phase or "?",
                        committed=committed, rollback_failed=True,
                        error=f"rollback failed: {rollback_err}",
                    )
                    raise MigrationAbortedError(
                        failed_phase or "?",
                        f"rollback failed: {rollback_err}",
                        cause=err,
                    ) from err
                ctl.close()
                journal.append(
                    "aborted", mid=mid, phase=failed_phase or "?",
                    committed=committed, error=str(err),
                )
                result = NinjaResult(
                    plan=plan,
                    breakdown=OverheadBreakdown.from_timeline(timeline),
                    timeline=timeline,
                    migration_stats=stats,
                    started_at=t0,
                    finished_at=env.now,
                    status="aborted",
                    failed_phase=failed_phase,
                    error=str(err),
                    retries=dict(retries),
                    rollback_actions=list(rollback_actions),
                    committed=committed,
                    migration_id=mid,
                )
                self.history.append(result)
                self.cluster.trace(
                    "ninja",
                    "aborted",
                    label=plan.label,
                    phase=failed_phase,
                    error=str(err),
                    committed=committed,
                    rollback=",".join(rollback_actions),
                    retries=sum(retries.values()),
                    wallclock=round(result.total_s, 3),
                )
                return result
        finally:
            for qemu in plan.qemus:
                qemu.hotplug.noise_factor = 1.0

        journal.append("complete", mid=mid)
        result = NinjaResult(
            plan=plan,
            breakdown=OverheadBreakdown.from_timeline(timeline),
            timeline=timeline,
            migration_stats=stats,
            started_at=t0,
            finished_at=env.now,
            retries=dict(retries),
            migration_id=mid,
        )
        self.history.append(result)
        self.cluster.trace(
            "ninja",
            "completed",
            label=plan.label,
            wallclock=round(result.total_s, 3),
            retries=sum(retries.values()),
            **result.breakdown.as_row(),
        )
        return result

    # -- plan builders (thin wrappers; the cloud scheduler adds policy) ------------

    def fallback_plan(self, qemus, dst_hosts, label: str = "fallback") -> MigrationPlan:
        """IB cluster → Ethernet cluster (detach, no re-attach)."""
        return MigrationPlan.build(
            self.cluster, qemus, list(dst_hosts), attach_ib=False, label=label
        )

    def recovery_plan(self, qemus, dst_hosts, label: str = "recovery") -> MigrationPlan:
        """Ethernet cluster → IB cluster (re-attach on arrival)."""
        return MigrationPlan.build(
            self.cluster, qemus, list(dst_hosts), attach_ib=True, label=label
        )

    def self_migration_plan(
        self, qemus, attach_ib: bool, label: str = "self"
    ) -> MigrationPlan:
        """Migrate VMs onto their own hosts (the Table II micro benchmark)."""
        return MigrationPlan.build(
            self.cluster,
            qemus,
            [q.node.name for q in qemus],
            attach_ib=attach_ib,
            label=label,
        )
