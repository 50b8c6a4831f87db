"""Controller crash matrix: die at every journal boundary, then recover.

For each instrumented ``controller.crash.*`` site the matrix kills the
controller mid-sequence, replays the write-ahead journal through
:class:`~repro.recovery.recovery.RecoveryManager`, and asserts the
crash-recovery contract:

* strictly *before* the commit point (the second coordinator signal) the
  journal has no ``commit-point`` record → recovery rolls **back**: every
  VM ends RUNNING on its origin host, unparked, with its origin HCA
  reattached;
* *at or after* the commit point → recovery rolls **forward**: every VM
  ends RUNNING on its planned destination, unparked;
* either way the fencing epoch is bumped, so a controller surviving from
  before the crash gets :class:`~repro.errors.StaleEpochError` on its
  next command, and the settled world passes
  :func:`repro.invariants.check`.
"""

import pytest

from repro.core.ninja import PHASES, NinjaMigration
from repro.errors import ControllerCrashError, StaleEpochError
from repro.invariants import Violation, check
from repro.recovery.recovery import RecoveryManager
from repro.symvirt.controller import Controller
from repro.testbed import busy_rank, create_job, provision_vms
from repro.units import GiB
from tests.conftest import assert_safe, drive

from repro.hardware.cluster import build_agc_cluster

pytestmark = pytest.mark.faults

#: Every crash site strictly before the commit point → roll back.
ROLL_BACK_POINTS = (
    "coordination.intent",
    "coordination.commit",
    "detach.intent",
    "detach.commit",
    "signal.intent",
    "signal.commit",
    "migration.intent",
    "migration.inflight",
    "migration.commit",
    "attach.intent",
    "attach.commit",
    "confirm.intent",
    "confirm.commit",
    "resume.intent",
)

#: At or after the commit point → roll forward.
ROLL_FORWARD_POINTS = (
    "commit-point.commit",
    "linkup.intent",
    "linkup.commit",
)

#: The points a phase's journal step offers (the rest are hand-placed).
STEP_POINTS = tuple(
    p for p in ROLL_BACK_POINTS + ROLL_FORWARD_POINTS
    if p.split(".")[0] in PHASES and p.split(".")[1] in ("intent", "commit")
)

ORIGINS = {"vm1": "ib01", "vm2": "ib02"}
DESTINATIONS = {"vm1": "eth01", "vm2": "eth02"}


def _setup():
    cluster = build_agc_cluster(ib_nodes=2, eth_nodes=2)
    vms = provision_vms(cluster, ["ib01", "ib02"], memory_bytes=1 * GiB)
    job = create_job(cluster, vms, procs_per_vm=1)
    drive(cluster.env, job.init(), name="init")
    job.launch(busy_rank)
    return cluster, vms, job


def _crash(cluster, ninja, job, plan, point):
    """Run the sequence into the armed crash; return the crash outcome."""
    cluster.faults.arm(f"controller.crash.{point}", error=ControllerCrashError)

    def main():
        try:
            yield from ninja.execute(job, plan)
        except ControllerCrashError:
            return "crashed"
        return "finished"

    return drive(cluster.env, main(), name="crash")


def _assert_site_rule(journal, point):
    """The journal as a crash at ``point`` left it: at a step's intent
    site, that phase's intent is the last record and has no commit; at
    its commit site, the phase has no commit."""
    if point not in STEP_POINTS:
        return
    assert journal.offered[-1][0] == point
    phase, boundary = point.split(".")
    (mid,) = journal.migration_ids()
    step = journal.fold("phase", (mid, phase))
    assert step.open
    if boundary == "intent":
        assert journal.records[-1] is step.intents[0]


def _recover(cluster, ninja, reason):
    manager = RecoveryManager(cluster, ninja.journal)

    def main():
        report = yield from manager.recover(reason=reason)
        return report

    return drive(cluster.env, main(), name="recover")


@pytest.mark.parametrize("point", ROLL_BACK_POINTS)
def test_crash_before_commit_point_rolls_back(point):
    cluster, vms, job = _setup()
    ninja = NinjaMigration(cluster)
    plan = ninja.fallback_plan(vms, ["eth01", "eth02"])
    assert _crash(cluster, ninja, job, plan, point) == "crashed"
    _assert_site_rule(ninja.journal, point)

    report = _recover(cluster, ninja, reason=point)
    assert report.clean, [d.error for d in report.decisions]
    assert len(report.decisions) == 1
    decision = report.decisions[0]
    assert decision.decision == "roll-back"
    assert "no commit-point record" in decision.basis

    cluster.env.run(until=cluster.env.now + 90.0)
    # The checker holds every attached HCA to a bound guest driver on its
    # host's bus; a roll-back must also have reattached the origin HCAs.
    assert_safe(cluster, ninja.journal, qemus=vms, hosts=ORIGINS)
    for q in vms:
        assignment = q.assignments.get(plan.detach_tag)
        assert assignment is not None and assignment.attached


@pytest.mark.parametrize("point", ROLL_FORWARD_POINTS)
def test_crash_at_or_after_commit_point_rolls_forward(point):
    cluster, vms, job = _setup()
    ninja = NinjaMigration(cluster)
    plan = ninja.fallback_plan(vms, ["eth01", "eth02"])
    assert _crash(cluster, ninja, job, plan, point) == "crashed"
    _assert_site_rule(ninja.journal, point)

    report = _recover(cluster, ninja, reason=point)
    assert report.clean, [d.error for d in report.decisions]
    assert len(report.decisions) == 1
    decision = report.decisions[0]
    assert decision.decision == "roll-forward"

    cluster.env.run(until=cluster.env.now + 90.0)
    assert_safe(cluster, ninja.journal, qemus=vms, hosts=DESTINATIONS)


def test_fencing_rejects_stale_epoch_command():
    """A controller created before the crash is fenced out by recovery."""
    cluster, vms, job = _setup()
    ninja = NinjaMigration(cluster)
    plan = ninja.fallback_plan(vms, ["eth01", "eth02"])
    assert _crash(cluster, ninja, job, plan, "detach.commit") == "crashed"

    stale = Controller(cluster, vms)  # epoch 1, pre-crash survivor
    report = _recover(cluster, ninja, reason="fencing test")
    assert report.clean
    assert cluster.fencing.current == report.epoch == 2

    with pytest.raises(StaleEpochError):
        drive(cluster.env, stale.signal(), name="stale-signal")

    # A controller minted at the new epoch is unaffected.
    fresh = Controller(cluster, vms)
    assert fresh.epoch == 2


def test_recovery_is_idempotent_and_terminal():
    """A second replay of the same journal finds nothing unfinished."""
    cluster, vms, job = _setup()
    ninja = NinjaMigration(cluster)
    plan = ninja.fallback_plan(vms, ["eth01", "eth02"])
    assert _crash(cluster, ninja, job, plan, "attach.intent") == "crashed"

    first = _recover(cluster, ninja, reason="first")
    assert first.clean and len(first.decisions) == 1

    second = _recover(cluster, ninja, reason="second")
    assert second.clean and len(second.decisions) == 0
    cluster.env.run(until=cluster.env.now + 90.0)
    assert_safe(cluster, ninja.journal, qemus=vms, hosts=ORIGINS)


def test_vm_lost_with_its_host_does_not_stop_the_pass():
    """One VM dies with its host mid-sequence: recovery still repairs the
    survivor, reports the loss, and closes the pass."""
    cluster, vms, job = _setup()
    ninja = NinjaMigration(cluster)
    plan = ninja.fallback_plan(vms, ["eth01", "eth02"])
    assert _crash(cluster, ninja, job, plan, "detach.commit") == "crashed"
    assert cluster.fail_host("ib01") == ["vm1"]

    report = _recover(cluster, ninja, reason="host lost")
    assert not report.clean
    (decision,) = report.decisions
    assert decision.decision == "roll-back"
    assert "vm1" in decision.error
    assert decision.final_hosts == {"vm2": "ib02"}
    assert decision.parked_after == []
    assert ninja.journal.records[-1].kind == "recovery-complete"

    vm2 = vms[1]
    cluster.env.run(until=cluster.env.now + 90.0)
    assert check(cluster, ninja.journal, qemus=vms) == [
        Violation("lost", "vm1", "shut off")
    ]
    assert vm2.node.name == "ib02"
    assignment = vm2.assignments.get(plan.detach_tag)
    assert assignment is not None and assignment.attached


def test_recovered_fleet_crash_closes_the_dead_orchestrators_requests(monkeypatch):
    """The successor runs the dead orchestrator's jobs as new requests;
    the old ones are closed in the journal, so a second recovery pass
    over the same journal resubmits nothing."""
    from repro.incident import scenario
    from repro.orchestrator.scenario import run_fleet_scenario

    managers = []

    class Recorded(RecoveryManager):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            managers.append(self)

    monkeypatch.setattr(scenario, "RecoveryManager", Recorded)
    result = run_fleet_scenario(jobs=4, crash_at_s=5.0)
    assert result.crashed and result.resubmitted == 4 and result.completed == 4

    (first,) = managers
    journal = first.journal
    assert journal.unfinished_requests() == []
    closed = [r.payload for r in journal.records if r.payload.get("recovered")]
    assert sorted((p["request"], p["status"]) for p in closed) == [
        (1, "superseded"), (2, "superseded"), (3, "superseded"), (4, "superseded"),
    ]
    second = drive(first.cluster.env, RecoveryManager(first.cluster, journal).recover())
    assert second.resubmit == [] and second.decisions == []


def test_a_rolled_forward_request_is_closed_as_completed():
    cluster, vms, job = _setup()
    ninja = NinjaMigration(cluster)
    plan = ninja.fallback_plan(vms, ["eth01", "eth02"])
    ninja.journal.append("request", request=1, job="j0", request_kind="fallback")
    ninja.journal.append("request-started", request=1, label=plan.label, attempt=1)
    assert _crash(cluster, ninja, job, plan, "linkup.intent") == "crashed"

    report = _recover(cluster, ninja, reason="roll forward")
    assert report.rolled_forward and report.resubmit == []
    assert ninja.journal.records[-2].payload == {
        "request": 1, "status": "completed", "recovered": True,
    }
    cluster.env.run(until=cluster.env.now + 90.0)
    assert_safe(cluster, ninja.journal, qemus=vms, hosts=DESTINATIONS)
