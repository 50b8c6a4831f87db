"""One definition of "safe": the state every run must end in.

A Ninja migration is transparent when, whatever failed on the way,
every guest resumes RUNNING on one definite host with its HCA seated
where it lives, and the control plane left no promise half kept.
:func:`check` is that definition, read-only, over the world (cluster,
VMs) and the books (journal, fleet state store, spare arbiter).  Every
drill, crash-matrix cell and property example calls it; a clean run
returns ``[]``.

Rules (the :attr:`Violation.rule` names):

* **VMs** — ``lost``: shut off, or left parked in ``symvirt_wait``;
  ``placement``: not resident on exactly one live host, the one
  ``q.node`` names; ``run-state``: not RUNNING, except PAUSED after a
  failed postcopy migration (the documented VM-loss case: the stream
  died after the switchover, with RAM still at the origin); ``dirty-logging`` / ``throttle``: migration
  state left on the guest; ``hca-bus`` / ``hca-driver``: an attached
  passthrough HCA not on the current host's bus, or with no guest driver
  bound to it.
* **Journal** — ``open-sequence``: a migration sequence with no
  terminal record (an abort whose rollback failed stays open);
  ``open-<kind>``: a journalled step of a kind that must close, with an
  intent and no commit (``open-request``, ``open-action``,
  ``open-incident``, ``open-restore``); ``double-<kind>``: a step of a
  kind that commits once, committed twice (``double-action``,
  ``double-restore``).  The kinds, their records and keys are
  :data:`repro.recovery.journal.STEP_KINDS`; the subject is the step's
  key.  ``stale-restore``: a restore older than the newest generation
  committed before it.
* **Capacity** — ``oversubscribed``: a host's store reservations exceed
  its free memory; ``negative-free``: a host with negative free memory;
  ``leaked-claim`` / ``leaked-inflight``: a reservation or in-flight
  entry left in the store once the journal shows every request closed; ``double-lease``: a
  spare the arbiter leased to two incidents at once.

Documented exceptions: the postcopy PAUSED case above, and an
uncommitted ``checkpoint-intent`` (that generation simply never
happened and is never restorable).  A run that leaves wreckage on
purpose (``repro fleet --crash-at-time T --no-recover``) reports it here
rather than hiding it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional

from repro.recovery.journal import STEP_KINDS
from repro.vmm.vm import RunState

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.cluster import Cluster
    from repro.orchestrator.state import FleetStateStore, SpareArbiter
    from repro.recovery.journal import MigrationJournal
    from repro.vmm.qemu import QemuProcess


@dataclass(frozen=True)
class Violation:
    """One broken rule: which rule, what breaks it, and how."""

    rule: str
    #: A VM name, host name, migration id, or a journal step's key (a
    #: request id, or a tuple such as ``(incident, step)``).
    subject: object
    detail: str = ""

    def __str__(self) -> str:
        return f"{self.rule} {self.subject}: {self.detail}"


def check(
    cluster: "Cluster",
    journal: Optional["MigrationJournal"] = None,
    *,
    qemus: Optional[Iterable["QemuProcess"]] = None,
    store: Optional["FleetStateStore"] = None,
    arbiter: Optional["SpareArbiter"] = None,
) -> List[Violation]:
    """Every violation of "safe" in the world and the books given.

    ``qemus`` are the VMs that must have survived (default: every VM
    resident on a cluster node, which cannot see a VM that died with its
    host).  Rules over the journal, the store and the arbiter run only
    when that object is given.
    """
    if qemus is None:
        qemus = [q for node in cluster.nodes.values() for q in node.vms]
    violations: List[Violation] = []
    for q in qemus:
        violations.extend(_vm_violations(cluster, q))
    if journal is not None:
        violations.extend(_journal_violations(journal))
    settled = journal is not None and not any(
        v.rule == "open-request" for v in violations
    )
    violations.extend(_capacity_violations(cluster, store, settled))
    if arbiter is not None:
        violations.extend(
            Violation("double-lease", tuple(d), "spare leased to two incidents")
            for d in arbiter.double_leases
        )
    return violations


def _vm_violations(cluster: "Cluster", q: "QemuProcess") -> List[Violation]:
    vm = q.vm
    name = vm.name
    if vm.state is RunState.SHUTOFF:
        return [Violation("lost", name, "shut off")]
    out: List[Violation] = []
    if vm.hypercall is not None and vm.hypercall.parked:
        out.append(Violation("lost", name, "left parked"))
    hosts = sorted(n.name for n in cluster.nodes.values() if q in n.vms)
    if hosts != [q.node.name] or q.node.failed:
        out.append(
            Violation(
                "placement", name,
                f"resident on {hosts}, node says {q.node.name}"
                + (" (failed)" if q.node.failed else ""),
            )
        )
    stats = q.current_migration.stats if q.current_migration is not None else None
    if vm.state is not RunState.RUNNING and not (
        vm.state is RunState.PAUSED
        and stats is not None
        and stats.mode == "postcopy"
        and stats.status == "failed"
    ):
        out.append(Violation("run-state", name, vm.state.value))
    if vm.memory.dirty_logging:
        out.append(Violation("dirty-logging", name, "dirty logging left on"))
    if vm.cpu_throttle != 0.0:
        out.append(Violation("throttle", name, f"cpu throttle {vm.cpu_throttle}"))
    for tag, assignment in sorted(q.assignments.items()):
        if not assignment.attached:
            continue
        slot = assignment.backing.slot
        if slot is None or slot.bus is not q.node.pci:
            where = slot.bus.name if slot is not None else "no slot"
            out.append(Violation("hca-bus", name, f"{tag} on {where}"))
        if vm.kernel is None or not vm.kernel.has_driver(assignment.function):
            out.append(Violation("hca-driver", name, f"{tag} has no driver bound"))
    return out


def _journal_violations(journal: "MigrationJournal") -> List[Violation]:
    out = [
        Violation("open-sequence", s.mid, f"phase reached {s.phase_reached!r}")
        for s in journal.unfinished()
    ]
    for kind, spec in STEP_KINDS.items():
        for step in journal.steps_of(kind):
            if spec.must_close and step.open:
                out.append(
                    Violation(f"open-{kind}", step.key, f"{spec.intent} has no {spec.commit}")
                )
            if spec.once and step.double:
                out.append(
                    Violation(f"double-{kind}", step.key, f"committed {len(step.commits)} times")
                )
    for step in journal.steps_of("restore"):
        for record in step.intents:
            p = record.payload
            newest = journal.last_committed_checkpoint(
                str(p.get("job")), before=record.time
            )
            if newest is not None and int(p.get("generation", -1)) < int(
                newest.get("generation", -1)  # type: ignore[arg-type]
            ):
                out.append(
                    Violation(
                        "stale-restore", step.key,
                        f"generation {p.get('generation')} older than "
                        f"committed {newest.get('generation')}",
                    )
                )
    return out


def _capacity_violations(
    cluster: "Cluster", store: Optional["FleetStateStore"], settled: bool
) -> List[Violation]:
    out = [
        Violation("negative-free", name, f"{node.free_memory:.0f} B free")
        for name, node in sorted(cluster.nodes.items())
        if node.free_memory < 0
    ]
    if store is None:
        return out
    claimed: Counter = Counter()
    for reservation in store.reservations():
        claimed[reservation.host] += reservation.nbytes
    for host, nbytes in sorted(claimed.items()):
        free = cluster.node(host).free_memory
        if nbytes > free:
            out.append(
                Violation("oversubscribed", host, f"{nbytes} B reserved, {free:.0f} B free")
            )
    if not settled:
        return out  # a live (or unknown) request may still hold claims
    out += [
        Violation("leaked-claim", r.host, f"{r.nbytes} B still reserved")
        for r in store.reservations()
    ]
    out += [
        Violation("leaked-inflight", plan.label, "still in flight")
        for plan in store.inflight.values()
    ]
    return out
