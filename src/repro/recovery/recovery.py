"""Crash recovery: journal replay, reconciliation, roll-forward/roll-back.

After a controller crash the cluster holds *orphaned* state: guests may
be parked in ``symvirt_wait``, HCAs half-detached, QEMU precopy streams
still draining, reservations booked by a dead orchestrator.  The
:class:`RecoveryManager` turns the write-ahead journal plus the observed
world back into a safe one:

1. **Fence** — bump the cluster fencing epoch so any zombie controller
   command is rejected (:class:`~repro.errors.StaleEpochError`) instead
   of racing recovery's own QMP traffic.
2. **Replay** — fold the journal into per-migration snapshots; every
   sequence without a terminal record is recovery work.
3. **Reconcile** — the journal may *lag* the world (records are written
   after their guard), never lead it: recovery first waits out in-flight
   precopy streams and hotplug primitives, finishes interrupted ejects,
   then trusts observation over journal where they disagree (e.g. a
   ``resume`` intent plus zero parked VMs means the commit-point signal
   landed even if its record did not).
4. **Decide** — per sequence: *roll-forward* past the commit point
   (guests already run at their destinations; deliver a missing resume,
   give link-up a bounded wait, shed dead HCAs), *roll-back* before it
   (unwind the journalled compensations in LIFO order, exactly as the
   live controller would have).
5. **Re-seed** — moved-but-rolling-back VMs get their *origin* capacity
   reserved in the (fresh) :class:`~repro.orchestrator.state.FleetStateStore`
   just before ``migrate-back``, so a resumed orchestrator cannot book
   the slot out from under them; the reservations are released once the
   VMs land.

Every step comes from :mod:`repro.recovery.undo`, shared with the live
controller.  A VM that died with its host is named in the decision's
``error``; its siblings and the rest of the pass are still recovered.

Every action recovery takes is itself journalled (``recovery-begin`` /
``recovery-decision`` / ``rollback-action`` before each step /
``recovered`` / ``recovery-complete``) — recovery of a crashed recovery
replays cleanly because the fold is idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import FleetError, ReproError
from repro.recovery import undo
from repro.recovery.journal import MigrationJournal, MigrationSnapshot
from repro.symvirt.controller import Controller

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.cluster import Cluster
    from repro.orchestrator.state import FleetStateStore


@dataclass
class RecoveryDecision:
    """What recovery concluded (and did) for one orphaned sequence."""

    mid: str
    label: str
    #: "roll-forward" | "roll-back"
    decision: str
    #: Deepest phase whose intent was journalled.
    phase_reached: str
    #: Why the decision fell where it did.
    basis: str = ""
    actions: List[str] = field(default_factory=list)
    #: VM name → host after recovery.
    final_hosts: Dict[str, str] = field(default_factory=dict)
    #: VMs still parked after recovery (must be empty).
    parked_after: List[str] = field(default_factory=list)
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error and not self.parked_after


@dataclass
class RecoveryReport:
    """Outcome of one full recovery pass."""

    epoch: int
    reason: str = ""
    decisions: List[RecoveryDecision] = field(default_factory=list)
    #: Origin-capacity reservations created while VMs travelled home.
    reseeded: int = 0
    #: Fleet requests that should be resubmitted to a fresh orchestrator.
    resubmit: List[Dict[str, object]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return all(d.ok for d in self.decisions)

    @property
    def rolled_forward(self) -> List[RecoveryDecision]:
        return [d for d in self.decisions if d.decision == "roll-forward"]

    @property
    def rolled_back(self) -> List[RecoveryDecision]:
        return [d for d in self.decisions if d.decision == "roll-back"]


class RecoveryManager:
    """Replays the journal after a controller crash and repairs the world."""

    def __init__(
        self,
        cluster: "Cluster",
        journal: MigrationJournal,
        store: Optional["FleetStateStore"] = None,
    ) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.journal = journal
        self.store = store

    # -- the recovery pass -----------------------------------------------------------

    def recover(self, reason: str = "controller crash"):
        """Run the full pass (generator — drive from a simulation process)."""
        epoch = self.cluster.fencing.bump(reason)
        self.cluster.trace("recovery", "begin", epoch=epoch, reason=reason)
        self.journal.append("recovery-begin", epoch=epoch, reason=reason)
        report = RecoveryReport(epoch=epoch, reason=reason)
        for snap in self.journal.unfinished():
            decision = yield from self._recover_one(snap, report)
            report.decisions.append(decision)
        report.resubmit = self._resubmission_specs(report)
        self.journal.append(
            "recovery-complete",
            epoch=epoch,
            sequences=len(report.decisions),
            rolled_forward=len(report.rolled_forward),
            rolled_back=len(report.rolled_back),
            clean=report.clean,
        )
        self.cluster.trace(
            "recovery", "complete", epoch=epoch,
            sequences=len(report.decisions), clean=report.clean,
        )
        return report

    # -- per-sequence ---------------------------------------------------------------

    def _decide(self, snap: MigrationSnapshot, qemus) -> tuple:
        """(decision, basis) for one orphaned sequence.

        The journal's ``commit-point`` record is authoritative when
        present.  When absent, observation breaks the tie for the one
        uncertain window: a journalled ``resume`` intent plus *zero*
        parked VMs means the second signal was delivered before the
        crash — the guests run at their destinations and yanking them
        back would tear a running job, so recovery rolls forward.
        """
        if snap.committed:
            return "roll-forward", "commit-point record"
        if snap.postcopy_vms:
            # A postcopy switchover is a per-VM point of no return: the
            # origin holds no runnable image, so the move must stand even
            # though the sequence-level commit point was never reached.
            return "roll-forward", "postcopy-switchover record"
        if "resume" in snap.intents:
            parked = [q.vm.name for q in qemus if q.vm.hypercall.parked]
            if not parked:
                return "roll-forward", "resume intent + no VM parked"
        return "roll-back", "no commit-point record"

    def _recover_one(self, snap: MigrationSnapshot, report: RecoveryReport):
        running = {
            qemu.vm.name: qemu for node in self.cluster.nodes.values() for qemu in node.vms
        }
        qemus = [running[name] for name in snap.vms if name in running]
        lost = [name for name in snap.vms if name not in running]
        yield from undo.settle(self.env, qemus, undo.SUCCESSOR_QUIET_POLLS)
        decision_kind, basis = self._decide(snap, qemus)
        decision = RecoveryDecision(
            mid=snap.mid,
            label=snap.label,
            decision=decision_kind,
            phase_reached=snap.phase_reached,
            basis=basis,
        )
        self.journal.append(
            "recovery-decision", mid=snap.mid, decision=decision_kind, basis=basis,
        )
        self.cluster.trace(
            "recovery", "decision", mid=snap.mid, decision=decision_kind,
            basis=basis, phase=snap.phase_reached,
        )
        errors = [f"VM {name!r} lost with its host" for name in lost]
        if qemus:
            ctl = Controller(self.cluster, qemus)  # fresh epoch: passes fencing
            try:
                undo.finish_partial_ejects(self.cluster, qemus, snap.tag)
                if decision_kind == "roll-forward":
                    yield from undo.roll_forward(
                        ctl, snap, self.journal, decision.actions, undo.ROLL_FORWARD_STEPS
                    )
                else:
                    yield from self._roll_back(snap, ctl, decision, report)
            except ReproError as err:
                errors.append(str(err))
            ctl.close()
        decision.error = "; ".join(errors)
        decision.final_hosts = {q.vm.name: q.node.name for q in qemus}
        decision.parked_after = [q.vm.name for q in qemus if q.vm.hypercall.parked]
        self.journal.append(
            "recovered", mid=snap.mid, decision=decision_kind,
            actions=list(decision.actions), error=decision.error,
        )
        return decision

    def _roll_back(self, snap: MigrationSnapshot, ctl: Controller, decision, report):
        """Before the commit point: unwind the journalled compensations,
        with each relocated VM's origin slot re-seeded in the store so a
        resumed orchestrator cannot book it while the VM travels home
        (only a successor lacks that reservation: the dead orchestrator's
        died with it)."""

        def reseed() -> None:
            moved = undo.relocated(ctl, snap.origin, snap.postcopy_vms)
            for agent in ctl.agents:
                name = agent.qemu.vm.name
                if name not in moved:
                    continue
                try:
                    self.store.reserve(
                        moved[name], agent.qemu.vm.memory.size_bytes, owner=snap.mid
                    )
                    report.reseeded += 1
                except FleetError as err:
                    # The slot is contested; the migrate-back is the
                    # physical claim and must proceed regardless.
                    self.cluster.trace(
                        "recovery", "reseed_failed", vm=name, error=str(err)
                    )

        yield from undo.unwind(
            ctl, snap, self.journal, decision.actions,
            park_timeout_s=undo.PARK_TIMEOUT_S,
            before={"migrate-back": reseed} if self.store is not None else None,
        )
        if self.store is not None:
            self.store.release_owner(snap.mid)

    # -- fleet resubmission ------------------------------------------------------------

    def _resubmission_specs(self, report: RecoveryReport) -> List[Dict[str, object]]:
        """Journalled fleet requests that still need to run.

        A request whose last attempt rolled *forward* is effectively
        completed (the VMs moved); one that rolled back — or never
        started — is resubmitted to the successor orchestrator.  Either
        way the dead orchestrator's request is closed in the journal
        (``completed`` or ``superseded``), so a later recovery pass over
        the same journal resubmits nothing twice.
        """
        forward_labels = {d.label for d in report.rolled_forward}
        specs: List[Dict[str, object]] = []
        for state in self.journal.unfinished_requests():
            labels = [lbl for lbl in state.get("labels", []) if lbl]
            forward = bool(labels) and labels[-1] in forward_labels
            self.journal.append(
                "request-finished", request=state["request"],
                status="completed" if forward else "superseded", recovered=True,
            )
            if forward:
                continue
            specs.append(
                {
                    "job": state.get("job"),
                    "kind": state.get("request_kind", "fallback"),
                    "priority": state.get("priority", 0),
                    "dst_hosts": state.get("dst_hosts"),
                }
            )
        return specs
