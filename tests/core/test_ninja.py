"""Integration-grade unit tests: the Ninja migration orchestrator."""

import pytest

from repro.core.ninja import NinjaMigration
from repro.core.plan import MigrationPlan
from repro.hardware.cluster import build_agc_cluster
from repro.testbed import busy_rank, create_job, provision_vms
from repro.units import GiB
from tests.conftest import drive
from tests.recovery.test_crash_matrix import STEP_POINTS


def _setup(ib=2, eth=2, ppv=1, vm_gib=4):
    cluster = build_agc_cluster(ib_nodes=ib, eth_nodes=eth)
    hosts = [f"ib{i+1:02d}" for i in range(ib)]
    vms = provision_vms(cluster, hosts, memory_bytes=vm_gib * GiB)
    job = create_job(cluster, vms, procs_per_vm=ppv)
    drive(cluster.env, job.init(), name="init")
    return cluster, vms, job


def _execute(cluster, job, plan):
    ninja = NinjaMigration(cluster)

    def main(env):
        result = yield from ninja.execute(job, plan)
        return result

    return drive(cluster.env, main(cluster.env))


def test_fallback_sequence(cluster44=None):
    cluster, vms, job = _setup()
    job.launch(busy_rank)
    plan = MigrationPlan.build(cluster, vms, ["eth01", "eth02"], attach_ib=False, label="fb")
    result = _execute(cluster, job, plan)
    b = result.breakdown
    cal = cluster.calibration
    noise = cal.migration_noise_factor
    # Hotplug = detach only (+confirm), dilated by migration noise.
    assert b.detach_s == pytest.approx(cal.ib_detach_s * noise, rel=0.01)
    assert b.attach_s == pytest.approx(0.0, abs=0.01)
    assert b.confirm_s == pytest.approx(cal.hotplug_confirm_s * noise, rel=0.01)
    assert b.linkup_s == pytest.approx(0.0, abs=0.01)
    assert b.migration_s > 5.0
    assert [q.node.name for q in vms] == ["eth01", "eth02"]
    # Ranks must still be alive and switch to tcp.
    cluster.env.run(until=cluster.env.now + 5.0)
    assert job.transports_in_use()["tcp"] == 2
    assert job.live_ranks == 2


def test_recovery_sequence_restores_ib():
    cluster, vms, job = _setup()
    job.launch(busy_rank)
    # First fall back…
    fb = MigrationPlan.build(cluster, vms, ["eth01", "eth02"], attach_ib=False)
    _execute(cluster, job, fb)
    # …then recover.
    rc = MigrationPlan.build(cluster, vms, ["ib01", "ib02"], attach_ib=True)
    result = _execute(cluster, job, rc)
    b = result.breakdown
    cal = cluster.calibration
    assert b.detach_s == pytest.approx(0.0, abs=0.01)  # nothing attached
    assert b.attach_s == pytest.approx(cal.ib_attach_s * cal.migration_noise_factor, rel=0.01)
    assert b.linkup_s == pytest.approx(cal.ib_linkup_s, abs=1.5)
    cluster.env.run(until=cluster.env.now + 5.0)
    assert job.transports_in_use()["openib"] == 2


def test_recovery_without_continue_like_restart_stays_on_tcp():
    """The ablation the paper's flag exists for (Section III-C)."""
    from repro.mpi.ft import FtSettings

    cluster = build_agc_cluster(ib_nodes=2, eth_nodes=2)
    vms = provision_vms(cluster, ["ib01", "ib02"], memory_bytes=4 * GiB)
    job = create_job(
        cluster, vms, procs_per_vm=1, ft=FtSettings(continue_like_restart=False)
    )
    drive(cluster.env, job.init(), name="init")
    job.launch(busy_rank)
    fb = MigrationPlan.build(cluster, vms, ["eth01", "eth02"], attach_ib=False)
    _execute(cluster, job, fb)
    rc = MigrationPlan.build(cluster, vms, ["ib01", "ib02"], attach_ib=True)
    _execute(cluster, job, rc)
    cluster.env.run(until=cluster.env.now + 40.0)
    # IB is attached and ACTIVE, but the runtime never re-probed: traffic
    # still flows over tcp.
    assert job.transports_in_use()["tcp"] == 2


def test_self_migration_table2_shape():
    cluster, vms, job = _setup()
    job.launch(busy_rank)
    ninja = NinjaMigration(cluster)
    plan = ninja.self_migration_plan(vms, attach_ib=True)
    result = _execute(cluster, job, plan)
    b = result.breakdown
    cal = cluster.calibration
    # Self-migration: no noise dilation.
    assert b.hotplug_s == pytest.approx(
        cal.ib_detach_s + cal.ib_attach_s + cal.hotplug_confirm_s, rel=0.02
    )
    assert b.linkup_s == pytest.approx(cal.ib_linkup_s, abs=1.0)


def test_noise_factor_reset_after_execute():
    cluster, vms, job = _setup()
    job.launch(busy_rank)
    plan = MigrationPlan.build(cluster, vms, ["eth01", "eth02"], attach_ib=False)
    _execute(cluster, job, plan)
    assert all(q.hotplug.noise_factor == 1.0 for q in vms)


def test_history_records_results():
    cluster, vms, job = _setup()
    job.launch(busy_rank)
    ninja = NinjaMigration(cluster)
    plan = ninja.fallback_plan(vms, ["eth01", "eth02"])

    def main(env):
        yield from ninja.execute(job, plan)

    drive(cluster.env, main(cluster.env))
    assert len(ninja.history) == 1
    assert ninja.history[0].plan is plan
    # The journal's step writer offered each phase's two crash sites, in
    # order: the list a crash matrix iterates over.
    assert len(STEP_POINTS) == 12
    assert [site for site, _ in ninja.journal.offered] == list(STEP_POINTS)


def test_migration_stats_per_vm():
    cluster, vms, job = _setup()
    job.launch(busy_rank)
    plan = MigrationPlan.build(cluster, vms, ["eth01", "eth02"], attach_ib=False)
    result = _execute(cluster, job, plan)
    assert set(result.migration_stats) == {q.vm.name for q in vms}
    assert all(s.status == "completed" for s in result.migration_stats.values())
    # Parked guests: single-pass migrations.
    assert all(s.iterations <= 2 for s in result.migration_stats.values())
