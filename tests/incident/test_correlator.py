"""Alert folding, incident classification, and blast-radius probing."""

from __future__ import annotations

from repro.hardware.cluster import Cluster
from repro.incident.correlator import IncidentCorrelator
from repro.incident.detectors import Alert
from repro.units import gbps


def alert(t, kind="outage", key="wan:pipe", severity="critical",
          detector="OutageDetector", first=None):
    return Alert(
        time=t, detector=detector, kind=kind, key=key, severity=severity,
        value=0.0, first_anomaly_at=first if first is not None else t,
    )


def _cluster():
    cluster = Cluster()
    for name in ("n1", "n2", "n3"):
        cluster.add_node(name)
    cluster.wire_ethernet(
        sites={"primary": ["n1", "n2"], "backup": ["n3"]},
        wan_bandwidth_Bps=gbps(1.0),
    )
    return cluster


class TestFolding:
    def test_concurrent_alerts_fold_into_one_incident(self):
        corr = IncidentCorrelator(_cluster())
        first = corr.ingest(alert(10.0, kind="outage", key="wan:pipe"))
        assert first is not None
        # A burst from the same event: collapse + loss on related series.
        assert corr.ingest(alert(10.2, kind="bw-collapse", key="wan:pipe",
                                 severity="warning")) is None
        assert corr.ingest(alert(11.0, kind="loss", key="eth01--sw",
                                 severity="warning")) is None
        assert len(corr.incidents) == 1
        incident = corr.incidents[0]
        assert len(incident.alerts) == 3
        assert incident.links == {"wan:pipe", "eth01--sw"}
        assert incident.severity == "critical"

    def test_alert_outside_window_opens_new_incident(self):
        corr = IncidentCorrelator(_cluster())
        corr.ingest(alert(10.0))
        second = corr.ingest(alert(20.0, key="eth01--sw"))
        assert second is not None
        assert len(corr.incidents) == 2

    def test_late_alert_folds_into_remediating_incident_by_overlap(self):
        corr = IncidentCorrelator(_cluster())
        incident = corr.ingest(alert(10.0, key="wan:pipe"))
        incident.status = "remediating"
        # Outside the window but on the same link: same blast radius.
        assert corr.ingest(alert(30.0, kind="bw-collapse", key="wan:pipe",
                                 severity="warning")) is None
        assert len(corr.incidents) == 1

    def test_resolved_incident_never_absorbs(self):
        corr = IncidentCorrelator(_cluster())
        incident = corr.ingest(alert(10.0))
        incident.status = "resolved"
        assert corr.ingest(alert(10.5)) is not None
        assert len(corr.incidents) == 2
        assert [i for i in corr.incidents if i.status != "resolved"] == [corr.incidents[1]]

    def test_first_anomaly_is_min_over_folded_alerts(self):
        corr = IncidentCorrelator(_cluster())
        incident = corr.ingest(alert(10.0, first=9.5))
        corr.ingest(alert(11.0, kind="bw-collapse", key="wan:pipe",
                          severity="warning", first=8.0))
        assert incident.first_anomaly_at == 8.0
        assert incident.mttd_s == 2.0  # opened_at 10.0 - folded first 8.0


class TestClassification:
    def test_outage_is_fiber_cut(self):
        corr = IncidentCorrelator(_cluster())
        incident = corr.ingest(alert(1.0, kind="outage"))
        assert incident.klass == "fiber-cut"

    def test_phi_only_is_host_failure(self):
        corr = IncidentCorrelator(_cluster())
        incident = corr.ingest(
            alert(1.0, kind="phi-spike", key="n2", detector="PhiSpikeDetector")
        )
        assert incident.klass == "host-failure"
        assert incident.hosts == {"n2"}

    def test_phi_with_outage_stays_fiber_cut(self):
        corr = IncidentCorrelator(_cluster())
        incident = corr.ingest(alert(1.0, kind="outage", key="wan:pipe"))
        corr.ingest(alert(1.5, kind="phi-spike", key="n3",
                          detector="PhiSpikeDetector"))
        assert incident.klass == "fiber-cut"

    def test_backbone_degradation_is_degraded_wan(self):
        corr = IncidentCorrelator(_cluster())
        incident = corr.ingest(
            alert(1.0, kind="bw-collapse", key="wan:pipe", severity="warning")
        )
        corr.ingest(alert(1.2, kind="loss", key="wan:pipe", severity="warning"))
        assert incident.klass == "degraded-wan"

    def test_access_link_degradation_is_congestion(self):
        corr = IncidentCorrelator(_cluster())
        incident = corr.ingest(
            alert(1.0, kind="bw-collapse", key="eth01--sw", severity="warning")
        )
        assert incident.klass == "congestion"

    def test_mixed_access_and_backbone_is_congestion(self):
        corr = IncidentCorrelator(_cluster())
        incident = corr.ingest(
            alert(1.0, kind="bw-collapse", key="wan:pipe", severity="warning")
        )
        corr.ingest(alert(1.1, kind="loss", key="eth01--sw", severity="warning"))
        assert incident.klass == "congestion"


class TestMetrics:
    def test_mttd_and_mttr(self):
        corr = IncidentCorrelator(_cluster())
        incident = corr.ingest(alert(10.0, first=9.0))
        assert incident.mttd_s == 1.0
        assert incident.mttr_s is None
        incident.remediated_at = 29.0
        assert incident.mttr_s == 20.0

    def test_to_dict_round_trips_the_essentials(self):
        corr = IncidentCorrelator(_cluster())
        incident = corr.ingest(alert(10.0))
        payload = incident.to_dict()
        assert payload["class"] == "fiber-cut"
        assert payload["links"] == ["wan:pipe"]
        assert payload["alerts"] == 1
        assert payload["status"] == "open"
