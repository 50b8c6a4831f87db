"""The headline drill: mid-drain fiber cut, diagnosed and routed around."""

from __future__ import annotations

import pytest

from repro.incident.scenario import CRASH_SITE, run_incident_scenario
from repro.orchestrator.scenario import build_fleet_cluster
from repro.sim.trace import Tracer
from tests.conftest import traced_violations


@pytest.fixture(scope="module")
def autonomous_result():
    return run_incident_scenario(jobs=4, autonomous=True)


class TestAutonomousFiberCut:
    def test_detected_and_classified(self, autonomous_result):
        r = autonomous_result
        assert r.incident_class == "fiber-cut"
        assert r.mttd_s is not None and r.mttd_s < 2.0
        assert r.alerts >= 1

    def test_remediated_with_zero_lost_vms(self, autonomous_result):
        r = autonomous_result
        assert r.lost_vms == []
        assert r.failed == 0
        assert r.all_resolved
        assert r.mttr_s is not None and r.mttr_s > 0.0

    def test_runbook_ran_in_order(self, autonomous_result):
        assert autonomous_result.actions == [
            "blacklist-links",
            "switch-postcopy",
            "raise-viability-floor",
            "evacuate-affected",
            "await-heal",
            "readmit",
        ]

    def test_stranded_job_was_evacuated_around_the_cut(self, autonomous_result):
        r = autonomous_result
        assert r.evacuated_jobs  # at least the WAN-bound job
        # Every VM left the IB blades or landed somewhere healthy; none
        # ended up at the dark backup site's far half unreachable...
        # concretely: every job has a host and nothing is parked.
        assert all(hosts for hosts in r.final_hosts.values())

    def test_service_restored_before_the_fiber_healed(self, autonomous_result):
        r = autonomous_result
        # The cut lasts heal_after_s; remediation must not just wait it out.
        assert r.mttr_s < r.heal_after_s

    def test_no_alert_storm(self, autonomous_result):
        # A sustained multi-second outage over dozens of probe ticks must
        # collapse into a handful of latched alerts, not one per tick.
        assert autonomous_result.alerts <= 10


class TestCrashDuringRemediation:
    @pytest.fixture(scope="class")
    def crash_run(self):
        tracer = Tracer()
        result = run_incident_scenario(
            jobs=4, autonomous=True, crash_site=CRASH_SITE, tracer=tracer
        )
        return result, tracer

    def test_controller_crashed_and_successor_resumed(self, crash_run):
        r, _ = crash_run
        assert r.crash_injected and r.crashed
        assert r.resumed_incidents >= 1

    def test_remediation_completed_without_double_execution(self, crash_run):
        r, tracer = crash_run
        assert traced_violations(tracer) == []
        assert r.double_executed == []
        assert r.all_resolved
        assert r.lost_vms == []
        assert r.failed == 0
        assert r.mttr_s is not None

    def test_same_outcome_as_uncrashed_run(self, crash_run, autonomous_result):
        r, _ = crash_run
        assert r.incident_class == autonomous_result.incident_class
        assert r.evacuated_jobs == autonomous_result.evacuated_jobs


class TestNonAutonomousBaseline:
    @pytest.fixture(scope="class")
    def baseline(self):
        return run_incident_scenario(jobs=4, autonomous=False)

    def test_diagnosis_still_happens(self, baseline):
        assert baseline.incident_class == "fiber-cut"
        assert baseline.mttd_s is not None

    def test_but_nothing_is_remediated(self, baseline):
        assert baseline.evacuated_jobs == []
        assert baseline.mttr_s is None
        assert not baseline.all_resolved
        assert baseline.actions == []


class TestIncidentCluster:
    def test_spares_sit_in_the_primary_site(self):
        cluster = build_fleet_cluster(4, spares=2)
        assert {"sp01", "sp02"}.issubset(set(cluster.nodes))
        topo = cluster.eth_fabric.topology
        # A spare is reachable from an IB blade without the WAN.
        path = topo.path("ib01", "sp01")
        assert not any(d.link.name.startswith("wan:") for d in path)

    def test_too_small_estate_rejected(self):
        with pytest.raises(ValueError):
            build_fleet_cluster(1)
