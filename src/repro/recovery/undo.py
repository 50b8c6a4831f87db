"""The one undo path for a migration sequence.

Three callers put the world back through this module: the live
controller (:meth:`~repro.core.ninja.NinjaMigration.execute`: rollback
before the commit point, degrade after it), crash recovery
(:class:`~repro.recovery.recovery.RecoveryManager`: roll-back or
roll-forward of what a dead controller left) and
:meth:`~repro.core.checkpointing.ProactiveCheckpoint.execute` (a failed
checkpoint re-attaches and resumes the job it parked).

Each compensation is defined once, under the name the journal records.
Steps read plain values; both Ninja callers take them from the same
journal fold (:class:`~repro.recovery.journal.MigrationSnapshot`), so
every live abort also proves the journal alone can undo a sequence.  A
successor differs only in data: quiet polls, bounded waits, a hook
before ``migrate-back`` and two extra roll-forward steps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Collection, Dict, List, Mapping, Optional

from repro.errors import PhaseTimeoutError
from repro.network.fabric import PortState

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.cluster import Cluster
    from repro.recovery.journal import MigrationJournal, MigrationSnapshot
    from repro.sim.core import Environment
    from repro.symvirt.agent import SymVirtAgent
    from repro.symvirt.controller import Controller
    from repro.vmm.qemu import QemuProcess

#: Poll interval while waiting for in-flight work to settle.
SETTLE_POLL_S = 0.05
#: Upper bound on settling: a migration stream that never resolves is
#: indistinguishable from a crashed QEMU, and surfacing an error beats
#: deadlocking.
SETTLE_TIMEOUT_S = 3600.0
#: Consecutive quiet polls a successor needs before it trusts the world.
SUCCESSOR_QUIET_POLLS = 3
#: Bound on a successor waiting for coordinators to (re)park: a crash
#: before the checkpoint request means nobody will ever park, and
#: recovery must not deadlock on a round that is not owed.
PARK_TIMEOUT_S = 120.0
#: Bound on a successor waiting for destination ports to train.
LINKUP_TIMEOUT_S = 120.0

#: Post-commit steps.  The live controller saw its commit-point signal
#: land; a successor may owe a resume and never saw link-up start.
DEGRADE_STEPS = ("detach-dead-hca",)
ROLL_FORWARD_STEPS = ("deliver-resume", "await-linkup", "detach-dead-hca")


# -- waiting -------------------------------------------------------------------


def busy(qemus: Collection["QemuProcess"]) -> bool:
    """True while any VM has a hotplug primitive or migration in flight."""
    for qemu in qemus:
        if qemu.hotplug.active_ops:
            return True
        job = qemu.current_migration
        if job is not None and job.stats.in_flight:
            return True
    return False


def settle(env: "Environment", qemus: Collection["QemuProcess"], quiet_polls: int = 0):
    """Wait until no VM in ``qemus`` has in-flight work (generator).

    A failed parallel phase fails fast while siblings still run; undoing
    before they land would race them.  ``quiet_polls=0`` (live) polls
    while busy.  A successor needs :data:`SUCCESSOR_QUIET_POLLS` quiet
    polls in a row: a command its dead predecessor issued is still on
    the wire for one QMP round-trip before it shows up as active.
    """
    deadline = env.now + SETTLE_TIMEOUT_S
    quiet = 0
    while (quiet < quiet_polls) if quiet_polls else busy(qemus):
        if env.now >= deadline:
            raise PhaseTimeoutError("settle", SETTLE_TIMEOUT_S)
        quiet = 0 if busy(qemus) else quiet + 1
        yield env.timeout(SETTLE_POLL_S)


def bounded(env: "Environment", events: list, timeout_s: float):
    """Wait for all ``events`` or the timeout; returns True if they all
    fired (generator)."""
    if not events:
        return True
    barrier = env.all_of(events)
    yield env.any_of([barrier, env.timeout(timeout_s)])
    return bool(barrier.triggered)


# -- before any step -------------------------------------------------------------


def finish_partial_ejects(cluster: "Cluster", qemus: Collection["QemuProcess"], tag: str):
    """Complete hotplug primitives that were interrupted mid-flight.

    A seated function with no guest driver is the signature of an
    interrupted attach (driver never probed) or detach (driver unbound,
    eject unfinished); either way the safe terminal state is "ejected".
    """
    for qemu in qemus:
        assignment = qemu.assignments.get(tag)
        kernel = qemu.vm.kernel
        if (
            assignment is not None
            and assignment.attached
            and kernel is not None
            and not kernel.has_driver(assignment.function)
        ):
            assignment.unseat()
            cluster.trace("ninja", "rollback_finish_eject", vm=qemu.vm.name, tag=tag)


# -- compensations (pushed before each risky phase, unwound LIFO) ----------------


def relocated(ctl: "Controller", origin: Mapping[str, str], postcopy_vms: Collection[str]):
    """VM name → origin host for every VM away from home, except those
    past a postcopy switchover (a per-VM point of no return)."""
    return {
        agent.qemu.vm.name: origin[agent.qemu.vm.name]
        for agent in ctl.agents
        if agent.qemu.node.name != origin[agent.qemu.vm.name]
        and agent.qemu.vm.name not in postcopy_vms
    }


def detach_stray(ctl: "Controller", tag: str, origin: Mapping[str, str]):
    """Eject HCAs this sequence attached on VMs away from home."""
    stray = [
        agent
        for agent in ctl.agents
        if agent.has_attached(tag) and agent.qemu.node.name != origin[agent.qemu.vm.name]
    ]
    if stray:
        yield ctl._parallel(agent.device_detach(tag) for agent in stray)


def migrate_back(ctl: "Controller", origin: Mapping[str, str], postcopy_vms: Collection[str]):
    """Return every relocated VM to its origin host."""
    back = relocated(ctl, origin, postcopy_vms)
    if back:
        yield from ctl.migration([], [], mapping=back)


def reattach_origin(ctl: "Controller", tag: str, had_attached: Mapping[str, bool]):
    """Re-attach the original HCA on every VM that started with one."""
    pending = [
        agent
        for agent in ctl.agents
        if had_attached.get(agent.qemu.vm.name) and not agent.has_attached(tag)
    ]
    if pending:
        yield ctl._parallel(agent.device_attach(host="", tag=tag) for agent in pending)


def resume_guests(ctl: "Controller", rounds_owed: int, park_timeout_s: Optional[float] = None):
    """Release the SymVirt rounds still owed so every coordinator returns.

    A successor cannot know the coordinators will park, so it passes
    ``park_timeout_s`` and stops at the first round nobody parks for.
    """
    for _ in range(rounds_owed):
        if park_timeout_s is not None:
            events = [a.qemu.vm.hypercall.wait_parked() for a in ctl.agents]
            if not (yield from bounded(ctl.env, events, park_timeout_s)):
                return
        yield from ctl.release(1)


#: Compensation name (as journalled) → the step, fed from a snapshot.
COMPENSATIONS: Dict[str, Callable[..., object]] = {
    "detach-stray": lambda ctl, s, park_s: detach_stray(ctl, s.tag, s.origin),
    "migrate-back": lambda ctl, s, park_s: migrate_back(ctl, s.origin, s.postcopy_vms),
    "reattach-origin": lambda ctl, s, park_s: reattach_origin(ctl, s.tag, s.had_attached),
    "resume-guests": lambda ctl, s, park_s: resume_guests(ctl, 2 - s.signals, park_s),
}


def unwind(
    ctl: "Controller", snap: "MigrationSnapshot", journal: "MigrationJournal",
    actions: List[str], park_timeout_s: Optional[float] = None,
    before: Optional[Mapping[str, Callable[[], None]]] = None,
):
    """Run ``snap``'s journalled compensations in LIFO order (generator).

    Each is journalled before its phase's intent and crash guard, so the
    journal holds exactly the live stack.  A popped name goes to
    ``actions`` and a ``rollback-action`` record *before* it runs, even
    if it then finds nothing to do; ``before[name]()`` runs just ahead.
    """
    for name in reversed(snap.compensations):
        actions.append(name)
        journal.append("rollback-action", mid=snap.mid, action=name)
        ctl.cluster.trace("ninja", "rollback_action", action=name)
        if before and name in before:
            before[name]()
        yield from COMPENSATIONS[name](ctl, snap, park_timeout_s)


# -- past the commit point: the move stands ----------------------------------------


def untrained(ctl: "Controller", tag: str) -> List["SymVirtAgent"]:
    """Agents whose HCA is attached but has no ACTIVE port."""
    out = []
    for agent in ctl.agents:
        if not agent.has_attached(tag):
            continue
        port = agent.qemu.assignments[tag].function.port
        if port is None or port.state is not PortState.ACTIVE:
            out.append(agent)
    return out


def deliver_resume(ctl: "Controller", tag: str, record: Callable[[str], None]):
    """Signal any VM still parked (a roll-forward on a postcopy
    switchover comes before the commit-point signal was sent)."""
    parked = [a for a in ctl.agents if a.qemu.vm.hypercall.parked]
    if parked:
        record("deliver-resume")
        yield ctl._parallel(a.signal() for a in parked)


def await_linkup(ctl: "Controller", tag: str, record: Callable[[str], None]):
    """Give ports still training :data:`LINKUP_TIMEOUT_S` to come up."""
    ports = [a.qemu.assignments[tag].function.port for a in untrained(ctl, tag)]
    events = [port.wait_active() for port in ports if port is not None]
    if events:
        record("await-linkup")
        yield from bounded(ctl.env, events, LINKUP_TIMEOUT_S)


def detach_dead_hca(ctl: "Controller", tag: str, record: Callable[[str], None]):
    """Eject HCAs whose port never trained (guests fall back to tcp)."""
    dead = untrained(ctl, tag)
    if dead:
        record("detach-dead-hca")
        yield ctl._parallel(agent.device_detach(tag) for agent in dead)


FORWARD_STEPS: Dict[str, Callable[..., object]] = {
    "deliver-resume": deliver_resume,
    "await-linkup": await_linkup,
    "detach-dead-hca": detach_dead_hca,
}


def roll_forward(
    ctl: "Controller", snap: "MigrationSnapshot", journal: "MigrationJournal",
    actions: List[str], steps: Collection[str] = DEGRADE_STEPS,
):
    """Keep the move and shed what cannot work (generator).  A step that
    finds work is recorded like a compensation before it acts; one that
    finds none leaves no record."""

    def record(name: str) -> None:
        actions.append(name)
        journal.append("rollback-action", mid=snap.mid, action=name)

    for name in steps:
        yield from FORWARD_STEPS[name](ctl, snap.tag, record)
