"""Crash matrix for the postcopy-switchover commit point.

A postcopy switchover is a *per-VM* point of no return: once execution
moves, the origin holds pages but no runnable VM.  The Ninja sequence
journals it as a ``postcopy-switchover`` record, bracketed by two crash
sites:

* ``controller.crash.postcopy.intent`` fires *before* the record is
  written — the journal lags the world, recovery sees no postcopy
  evidence and rolls **back**.  That is safe precisely because the guard
  sits after the migration barrier: the drain has completed, the VM is
  whole at the destination, and rolling back is an ordinary (pre-copy)
  migration home.
* ``controller.crash.postcopy.commit`` fires *after* the record — the
  journal now proves execution moved, and recovery rolls **forward**
  even though the sequence never reached its own commit point.
"""

import pytest

from repro.core.ninja import NinjaMigration
from repro.errors import ControllerCrashError
from repro.hardware.cluster import build_agc_cluster
from repro.recovery.recovery import RecoveryManager
from repro.testbed import busy_rank, create_job, provision_vms
from repro.units import GiB
from repro.vmm.policy import MigrationPolicy
from tests.conftest import assert_safe, drive

pytestmark = pytest.mark.faults

ORIGINS = {"vm1": "ib01", "vm2": "ib02"}
DESTINATIONS = {"vm1": "eth01", "vm2": "eth02"}


def _setup():
    cluster = build_agc_cluster(ib_nodes=2, eth_nodes=2)
    vms = provision_vms(cluster, ["ib01", "ib02"], memory_bytes=1 * GiB)
    job = create_job(cluster, vms, procs_per_vm=1)
    drive(cluster.env, job.init(), name="init")
    job.launch(busy_rank)
    ninja = NinjaMigration(
        cluster, migration_policy=MigrationPolicy(postcopy="always")
    )
    plan = ninja.fallback_plan(vms, ["eth01", "eth02"])
    return cluster, vms, job, ninja, plan


def _crash(cluster, ninja, job, plan, point):
    cluster.faults.arm(f"controller.crash.{point}", error=ControllerCrashError)

    def main():
        try:
            yield from ninja.execute(job, plan)
        except ControllerCrashError:
            return "crashed"
        return "finished"

    return drive(cluster.env, main(), name="crash")


def _recover(cluster, ninja, reason):
    manager = RecoveryManager(cluster, ninja.journal)

    def main():
        report = yield from manager.recover(reason=reason)
        return report

    return drive(cluster.env, main(), name="recover")


def test_crash_before_switchover_record_rolls_back():
    cluster, vms, job, ninja, plan = _setup()
    assert _crash(cluster, ninja, job, plan, "postcopy.intent") == "crashed"

    # The world is ahead of the journal: execution moved, record missing.
    assert all(q.node.name == DESTINATIONS[q.vm.name] for q in vms)
    assert not any(
        r.kind == "postcopy-switchover" for r in ninja.journal.records
    )

    report = _recover(cluster, ninja, reason="postcopy.intent")
    assert report.clean, [d.error for d in report.decisions]
    assert len(report.decisions) == 1
    assert report.decisions[0].decision == "roll-back"

    cluster.env.run(until=cluster.env.now + 90.0)
    assert_safe(cluster, ninja.journal, qemus=vms, hosts=ORIGINS)


def test_crash_after_switchover_record_rolls_forward():
    cluster, vms, job, ninja, plan = _setup()
    assert _crash(cluster, ninja, job, plan, "postcopy.commit") == "crashed"

    switchover = [r for r in ninja.journal.records if r.kind == "postcopy-switchover"]
    assert len(switchover) == 1
    assert sorted(switchover[0].payload["vms"]) == ["vm1", "vm2"]

    report = _recover(cluster, ninja, reason="postcopy.commit")
    assert report.clean, [d.error for d in report.decisions]
    assert len(report.decisions) == 1
    decision = report.decisions[0]
    assert decision.decision == "roll-forward"
    assert "postcopy-switchover" in decision.basis

    cluster.env.run(until=cluster.env.now + 90.0)
    assert_safe(cluster, ninja.journal, qemus=vms, hosts=DESTINATIONS)


def test_switchover_journal_survives_into_snapshot():
    cluster, vms, job, ninja, plan = _setup()
    assert _crash(cluster, ninja, job, plan, "postcopy.commit") == "crashed"
    snapshots = ninja.journal.snapshots()
    assert len(snapshots) == 1
    assert sorted(snapshots[0].postcopy_vms) == ["vm1", "vm2"]
