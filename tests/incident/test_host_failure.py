"""Host-failure survivability drill: proactive checkpoints, restore
remediation, crash-resume, and multi-incident spare arbitration."""

from __future__ import annotations

import pytest

from repro.incident.runbook import (
    RESTORE_BOOT_SITE,
    RESTORE_COMMIT_SITE,
    RESTORE_INTENT_SITE,
)
from repro.incident.scenario import run_host_failure_scenario
from repro.recovery.checkpoints import (
    CHECKPOINT_COMMIT_SITE,
    CHECKPOINT_INTENT_SITE,
)
from repro.recovery.journal import MigrationJournal
from repro.sim.trace import Tracer
from tests.conftest import closing_checks, traced_violations

ALL_CRASH_SITES = (
    CHECKPOINT_INTENT_SITE,
    CHECKPOINT_COMMIT_SITE,
    RESTORE_INTENT_SITE,
    RESTORE_BOOT_SITE,
    RESTORE_COMMIT_SITE,
)


#: Crash site → the journal step kind offering it.
STEP_SITES = {
    CHECKPOINT_INTENT_SITE: "checkpoint",
    CHECKPOINT_COMMIT_SITE: "checkpoint",
    RESTORE_INTENT_SITE: "restore",
    RESTORE_COMMIT_SITE: "restore",
}


def assert_site_rule(journal: MigrationJournal, site: str) -> None:
    """The journal as a crash at ``site`` (its first offer) left it: the
    step whose intent came last is open, and at an intent site that
    intent is the last record."""
    if site not in STEP_SITES:
        return
    at = next(n for offered, n in journal.offered if offered == site)
    prefix = MigrationJournal.loads("\n".join(journal.dumps().splitlines()[:at]))
    crashed = max(
        (s for s in prefix.steps_of(STEP_SITES[site]) if s.intents),
        key=lambda s: s.intents[-1].seq,
    )
    assert crashed.open
    if site.endswith(".intent"):
        assert prefix.records[-1].seq == crashed.intents[-1].seq


@pytest.fixture(scope="module")
def autonomous_result():
    tracer = Tracer()
    result = run_host_failure_scenario(jobs=2, spares=1, tracer=tracer)
    return result, tracer


class TestAutonomousHostFailure:
    def test_detected_and_classified(self, autonomous_result):
        r, _ = autonomous_result
        assert "host-failure" in r.incident_classes
        assert r.killed_at_s is not None
        assert r.vms_lost_at_kill  # the kill really took VMs down

    def test_remediated_with_zero_lost_vms(self, autonomous_result):
        r, _ = autonomous_result
        assert r.lost_vms == []
        assert r.failed == 0
        assert r.all_resolved
        assert r.restored_jobs

    def test_rpo_within_checkpoint_period(self, autonomous_result):
        r, _ = autonomous_result
        assert r.generations_committed >= 1
        assert r.rpo_s is not None
        assert r.rpo_s <= r.rpo_bound_s == r.checkpoint_period_s

    def test_restore_rto_measured(self, autonomous_result):
        r, _ = autonomous_result
        assert r.restore_rto_s is not None and r.restore_rto_s > 0.0

    def test_restored_job_landed_on_spare(self, autonomous_result):
        r, _ = autonomous_result
        for job_id in r.restored_jobs:
            assert all(h.startswith("sp") for h in r.final_hosts[job_id])

    def test_evacuate_host_fell_through_cleanly(self, autonomous_result):
        # The runbook tries evacuation first; the host is already dead,
        # so the step must skip (not fail) and hand over to the restore.
        _, tracer = autonomous_result
        falls = [
            rec for rec in tracer.records
            if rec.event == "evacuation_fell_through"
        ]
        assert falls
        assert any("host-failed" in str(rec.fields) for rec in falls)

    def test_no_double_restore_or_double_lease(self, autonomous_result):
        r, tracer = autonomous_result
        assert r.double_restored == []
        assert r.spare_double_leases == []
        assert traced_violations(tracer) == []


class TestBaseline:
    def test_without_remediation_the_vms_stay_lost(self):
        r = run_host_failure_scenario(jobs=2, spares=1, autonomous=False)
        assert "host-failure" in r.incident_classes
        assert not r.all_resolved
        assert r.restored_jobs == []
        assert r.lost_vms == sorted(r.vms_lost_at_kill)


class TestCrashResume:
    @pytest.mark.parametrize("site", ALL_CRASH_SITES)
    def test_crash_at_every_journal_site_converges(self, site):
        tracer = Tracer()
        with closing_checks() as seen:
            r = run_host_failure_scenario(
                jobs=2, spares=1, crash_site=site, tracer=tracer
            )
        assert_site_rule(seen[-1][1], site)
        assert traced_violations(tracer) == []
        assert r.crashed
        assert r.all_resolved
        assert r.lost_vms == []
        assert r.restored_jobs
        assert r.double_restored == []
        assert r.double_executed == []
        assert r.spare_double_leases == []
        assert r.rpo_s is not None and r.rpo_s <= r.rpo_bound_s

    def test_restore_site_crashes_resume_via_successor(self):
        r = run_host_failure_scenario(
            jobs=2, spares=1,
            crash_site=RESTORE_BOOT_SITE,
        )
        assert r.resumed_incidents >= 1

    def test_commit_site_crash_adopts_booted_vms(self):
        # Crash after the replacements booted but before the commit
        # record: the successor must adopt them, not boot a second set.
        r = run_host_failure_scenario(
            jobs=2, spares=1,
            crash_site=RESTORE_COMMIT_SITE,
        )
        assert r.adopted_vms
        assert r.double_restored == []

    def test_late_kill_restores_the_newest_generation(self):
        # By t+90 s the victim's job holds three committed generations:
        # the restore must take the newest, never an older one.
        tracer = Tracer()
        r = run_host_failure_scenario(jobs=2, spares=1, kill_at_s=90.0, tracer=tracer)
        assert traced_violations(tracer) == []
        assert r.restored_jobs == ["j0"]

    def test_crash_and_clean_runs_restore_identically(self):
        clean = run_host_failure_scenario(jobs=2, spares=1)
        crashed = run_host_failure_scenario(
            jobs=2, spares=1,
            crash_site=RESTORE_INTENT_SITE,
        )
        assert crashed.restored_jobs == clean.restored_jobs
        assert crashed.lost_vms == clean.lost_vms == []
        for job_id in clean.restored_jobs:
            assert crashed.final_hosts[job_id] == clean.final_hosts[job_id]


class TestOverlappingIncidents:
    @pytest.fixture(scope="class")
    def overlap_result(self):
        return run_host_failure_scenario(jobs=4, spares=3, cut_at_s=6.0)

    def test_both_incidents_resolve(self, overlap_result):
        r = overlap_result
        assert {"fiber-cut", "host-failure"} <= set(r.incident_classes)
        assert r.all_resolved

    def test_zero_lost_vms_despite_two_incidents(self, overlap_result):
        r = overlap_result
        assert r.lost_vms == []
        assert r.failed == 0
        assert r.restored_jobs

    def test_spares_shared_without_double_reservation(self, overlap_result):
        r = overlap_result
        assert r.spare_double_leases == []
        assert r.double_restored == []
