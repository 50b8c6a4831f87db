"""Transactional Ninja migration: every abort point is safe.

The matrix injects a fault into each of the six phases, across all three
plan shapes (fallback, recovery, self), and asserts the safety invariants
the transactional orchestrator guarantees:

* the sequence returns an *aborted* :class:`NinjaResult` naming the
  failed phase (it does not raise, and does not leak parked VMs);
* every VM ends RUNNING on a definite host — its origin after a rollback,
  the planned destination after a post-commit degrade;
* every HCA is attached at exactly the host its VM runs on, with a bound
  guest driver (no half-seated zombies), or not attached at all;
* the MPI job stays fully live with a usable transport for every pair.
"""

import pytest

from repro.core.faults import RetryPolicy
from repro.core.ninja import PHASES, NinjaMigration
from repro.core.plan import MigrationPlan
from repro.errors import QmpError
from repro.hardware.node import VF_TAG
from repro.testbed import busy_rank, create_job, provision_vms
from repro.units import GiB
from repro.vmm.vm import RunState
from tests.conftest import drive

from repro.hardware.cluster import build_agc_cluster

pytestmark = pytest.mark.faults

PLAN_KINDS = ("fallback", "recovery", "self")


def _setup(vm_gib=1):
    cluster = build_agc_cluster(ib_nodes=2, eth_nodes=2)
    vms = provision_vms(cluster, ["ib01", "ib02"], memory_bytes=vm_gib * GiB)
    job = create_job(cluster, vms, procs_per_vm=1)
    drive(cluster.env, job.init(), name="init")
    job.launch(busy_rank)
    return cluster, vms, job


def _execute(cluster, ninja, job, plan):
    def main():
        result = yield from ninja.execute(job, plan)
        return result

    return drive(cluster.env, main(), name="ninja")


def _arrange(plan_kind):
    """Build cluster+job and the requested plan (recovery runs a clean
    fallback first so there is something to recover from)."""
    cluster, vms, job = _setup()
    ninja = NinjaMigration(cluster)
    if plan_kind == "fallback":
        plan = ninja.fallback_plan(vms, ["eth01", "eth02"])
    elif plan_kind == "recovery":
        fb = ninja.fallback_plan(vms, ["eth01", "eth02"])
        assert not _execute(cluster, ninja, job, fb).aborted
        plan = MigrationPlan.build(cluster, vms, ["ib01", "ib02"], attach_ib=True, label="recovery")
    else:
        plan = ninja.self_migration_plan(vms, attach_ib=True)
    return cluster, vms, job, ninja, plan


def _assert_safe(cluster, vms, job, plan, expected_hosts, attached_before=None):
    """The post-abort safety invariants (drive the sim 90 s to let link
    training and BTL reconstruction finish first)."""
    cluster.env.run(until=cluster.env.now + 90.0)
    for q in vms:
        # Definite placement, running, not parked.
        assert q.node.name == expected_hosts[q.vm.name]
        assert q.vm.state is RunState.RUNNING
        assert not q.vm.hypercall.parked
        # HCA invariant: attached at the VM's current host with a bound
        # driver, or cleanly absent — never half-seated, never elsewhere.
        assignment = q.assignments.get(VF_TAG)
        if assignment is not None and assignment.attached:
            assert q.vm.kernel.has_driver(assignment.function)
            assert assignment.backing.slot.bus is q.node.pci
        if attached_before is not None:
            attached = assignment is not None and assignment.attached
            assert attached == attached_before[q.vm.name]
    # The job is fully live with a usable transport for every pair.
    assert job.live_ranks == job.size
    transports = job.transports_in_use()
    assert sum(transports.values()) == job.size * (job.size - 1)


# -- the matrix: fault at every phase x every plan shape ----------------------


@pytest.mark.parametrize("plan_kind", PLAN_KINDS)
@pytest.mark.parametrize("phase", PHASES)
def test_abort_at_every_phase_is_safe(phase, plan_kind):
    cluster, vms, job, ninja, plan = _arrange(plan_kind)
    origin = {q.vm.name: q.node.name for q in vms}
    attached_before = {
        q.vm.name: (
            q.assignments.get(VF_TAG) is not None
            and q.assignments[VF_TAG].attached
        )
        for q in vms
    }
    cluster.faults.arm(f"ninja.{phase}")

    result = _execute(cluster, ninja, job, plan)

    assert result.aborted
    assert result.status == "aborted"
    assert result.failed_phase == phase
    assert cluster.tracer.count("ninja", "aborted") == 1
    if result.committed:
        # Only a link-up failure lands past the commit point: the move is
        # kept and dead devices are shed instead of rolling back.
        assert phase == "linkup"
        expected = dict(plan.mapping)
        _assert_safe(cluster, vms, job, plan, expected)
    else:
        assert phase != "linkup"
        # Full rollback: compensation ran and the world is restored.
        assert "resume-guests" in result.rollback_actions
        _assert_safe(cluster, vms, job, plan, origin, attached_before)


def test_linkup_abort_reports_committed_and_degrades():
    cluster, vms, job, ninja, plan = _arrange("recovery")
    cluster.faults.arm("ninja.linkup")
    result = _execute(cluster, ninja, job, plan)
    assert result.aborted and result.committed and result.failed_phase == "linkup"
    # The untrained HCAs were ejected so the guests fall back to tcp.
    assert "detach-dead-hca" in result.rollback_actions
    cluster.env.run(until=cluster.env.now + 30.0)
    assert job.transports_in_use() == {"tcp": job.size * (job.size - 1)}
    assert job.live_ranks == job.size


def test_fallback_abort_restores_openib():
    """Rollback of a fallback re-attaches the origin HCAs; once the link
    retrains the job is back on openib as if nothing happened."""
    cluster, vms, job, ninja, plan = _arrange("fallback")
    cluster.faults.arm("ninja.migration")
    result = _execute(cluster, ninja, job, plan)
    assert result.aborted
    assert result.rollback_actions[-1] == "resume-guests"
    cluster.env.run(until=cluster.env.now + 90.0)
    assert job.transports_in_use() == {"openib": job.size * (job.size - 1)}


# -- per-phase timeouts -------------------------------------------------------


@pytest.mark.parametrize("phase", ("detach", "migration", "attach"))
def test_hung_phase_hits_timeout_and_rolls_back(phase):
    cluster, vms, job = _setup()
    ninja = NinjaMigration(cluster, phase_timeout_s={phase: 30.0})
    plan = ninja.fallback_plan(vms, ["eth01", "eth02"])
    origin = {q.vm.name: q.node.name for q in vms}
    cluster.faults.arm(f"ninja.{phase}", hang=True)

    t0 = cluster.env.now
    result = _execute(cluster, ninja, job, plan)

    assert result.aborted and result.failed_phase == phase
    assert "timeout" in result.error
    # The timeout actually bounded the phase (not the whole sequence).
    assert result.timeline.total(phase) == pytest.approx(30.0, abs=0.5)
    assert cluster.env.now > t0
    _assert_safe(cluster, vms, job, plan, origin)


def test_timeouts_are_not_retried():
    cluster, vms, job = _setup()
    ninja = NinjaMigration(
        cluster,
        retry_policy=RetryPolicy(max_attempts=3),
        phase_timeout_s={"detach": 10.0},
    )
    plan = ninja.fallback_plan(vms, ["eth01", "eth02"])
    for _ in range(3):
        cluster.faults.arm("ninja.detach", hang=True)
    result = _execute(cluster, ninja, job, plan)
    assert result.aborted
    assert result.retries == {}
    assert cluster.tracer.count("ninja", "retry") == 0


# -- transient faults are absorbed by retry/backoff ---------------------------


def test_transient_fault_absorbed_by_retry():
    cluster, vms, job = _setup()
    ninja = NinjaMigration(cluster)
    plan = ninja.fallback_plan(vms, ["eth01", "eth02"])
    cluster.faults.arm(
        "ninja.migration", error=QmpError("GenericError", "socket reset")
    )

    result = _execute(cluster, ninja, job, plan)

    assert not result.aborted
    assert result.retries == {"migration": 1}
    # The retry is visible in the trace, with its backoff.
    records = list(cluster.tracer.select("ninja", "retry"))
    assert len(records) == 1
    assert records[0].fields["phase"] == "migration"
    assert records[0].fields["backoff_s"] == pytest.approx(0.5)
    assert [q.node.name for q in vms] == ["eth01", "eth02"]
    cluster.env.run(until=cluster.env.now + 5.0)
    assert job.live_ranks == job.size


def test_transient_qmp_fault_in_one_agent_retries_only_missing_work():
    """A per-VM QMP failure fails the phase barrier, but the sibling's
    completed migration is not redone on the retry."""
    cluster, vms, job = _setup()
    ninja = NinjaMigration(cluster)
    plan = ninja.fallback_plan(vms, ["eth01", "eth02"])
    cluster.faults.arm("qmp.migrate", error=QmpError("GenericError", "rtt loss"))

    result = _execute(cluster, ninja, job, plan)

    assert not result.aborted
    assert result.retries == {"migration": 1}
    assert set(result.migration_stats) == {q.vm.name for q in vms}
    assert all(s.status == "completed" for s in result.migration_stats.values())
    # Exactly one migration stream per VM ran (no double-migration).
    assert cluster.tracer.count("migration", "completed") == len(vms)


def test_retries_exhausted_aborts_with_rollback():
    cluster, vms, job = _setup()
    ninja = NinjaMigration(cluster, retry_policy=RetryPolicy(max_attempts=3))
    plan = ninja.fallback_plan(vms, ["eth01", "eth02"])
    origin = {q.vm.name: q.node.name for q in vms}
    for _ in range(3):
        cluster.faults.arm("ninja.detach", error=QmpError("GenericError", "flaky"))
    result = _execute(cluster, ninja, job, plan)
    assert result.aborted and result.failed_phase == "detach"
    assert result.retries == {"detach": 2}  # two retries, then give up
    _assert_safe(cluster, vms, job, plan, origin)


# -- regression: early abort builds a result (stats was unbound) --------------


def test_abort_before_migration_phase_has_empty_stats():
    """Regression: ``stats`` used to be bound only inside the migration
    phase, so building a result after an earlier failure blew up."""
    cluster, vms, job = _setup()
    ninja = NinjaMigration(cluster)
    plan = ninja.fallback_plan(vms, ["eth01", "eth02"])
    cluster.faults.arm("ninja.coordination")
    result = _execute(cluster, ninja, job, plan)
    assert result.aborted and result.failed_phase == "coordination"
    assert result.migration_stats == {}
    assert result.breakdown is not None
