"""Alert correlation: many concurrent alerts, one classified incident.

A fiber cut does not produce one signal — it produces an outage alert on
the cut link, goodput collapse on every flow that crossed it, phi noise
if a heartbeat path shared the fiber, and non-convergence from the
migrations it starved.  The correlator folds alerts arriving within the
:data:`WINDOW_S` correlation window into a single open :class:`Incident`,
classifies it, and computes the blast radius (links, hosts, in-flight
fleet requests) the runbook needs.

Classification (first match wins):

``host-failure``
    phi-spike alerts with no link outage explaining them.
``fiber-cut``
    Any link outage alert (a dark link is a cut, wherever it is).
``degraded-wan``
    Bandwidth/latency/loss degradation confined to backbone links
    (matching :data:`BACKBONE_PATTERNS`: ``wan:*``).
``congestion``
    Everything else — degradation on access links with no outage.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from functools import partial
from itertools import count
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.incident.detectors import Alert

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.cluster import Cluster
    from repro.orchestrator.executor import FleetOrchestrator

#: Alert kinds whose key names a link.
LINK_ALERT_KINDS = ("outage", "bw-collapse", "latency-spike", "loss")
#: Alerts at most this many seconds after an open incident's last alert
#: fold into it.
WINDOW_S = 2.0
#: Link-name patterns of the backbone (the inter-site WAN links).
BACKBONE_PATTERNS = ("wan:*",)

OPEN = "open"
REMEDIATING = "remediating"
RESOLVED = "resolved"


@dataclass
class Incident:
    """One diagnosed event with blast radius and lifecycle timestamps."""

    incident_id: int
    opened_at: float
    first_anomaly_at: float
    klass: str  # "fiber-cut" | "host-failure" | "congestion" | "degraded-wan"
    severity: str
    alerts: List[Alert] = field(default_factory=list)
    links: Set[str] = field(default_factory=set)
    hosts: Set[str] = field(default_factory=set)
    #: Hosts named by phi-spike alerts — the *suspects* themselves, as
    #: opposed to ``hosts`` which also accumulates blast-radius hosts
    #: (every host of every affected job).  Remediation targets suspects;
    #: folding decisions for phi alerts match against suspects only, so a
    #: host inside another incident's blast radius can still open its own
    #: host-failure incident.
    suspect_hosts: Set[str] = field(default_factory=set)
    jobs: Set[str] = field(default_factory=set)
    request_ids: Set[int] = field(default_factory=set)
    status: str = OPEN
    #: Set when the runbook's service-restoring action completed.
    remediated_at: Optional[float] = None
    resolved_at: Optional[float] = None
    #: Runbook actions executed (appended by the executor).
    actions: List[str] = field(default_factory=list)

    @property
    def last_alert_at(self) -> float:
        return self.alerts[-1].time if self.alerts else self.opened_at

    @property
    def mttd_s(self) -> float:
        """Time from first anomalous observation to incident opening."""
        return max(self.opened_at - self.first_anomaly_at, 0.0)

    @property
    def mttr_s(self) -> Optional[float]:
        """Time from first anomaly to service restoration (if reached)."""
        if self.remediated_at is None:
            return None
        return max(self.remediated_at - self.first_anomaly_at, 0.0)

    def to_dict(self) -> Dict[str, object]:
        return {
            "incident": self.incident_id,
            "class": self.klass,
            "severity": self.severity,
            "opened_at": self.opened_at,
            "first_anomaly_at": self.first_anomaly_at,
            "status": self.status,
            "mttd_s": round(self.mttd_s, 4),
            "mttr_s": round(self.mttr_s, 4) if self.mttr_s is not None else None,
            "links": sorted(self.links),
            "hosts": sorted(self.hosts),
            "suspect_hosts": sorted(self.suspect_hosts),
            "jobs": sorted(self.jobs),
            "alerts": len(self.alerts),
            "actions": list(self.actions),
        }


class IncidentCorrelator:
    """Folds alerts into open incidents; emits newly opened ones."""

    def __init__(
        self,
        cluster: "Cluster",
        orchestrator: Optional["FleetOrchestrator"] = None,
    ) -> None:
        self.cluster = cluster
        self.orchestrator = orchestrator
        self.incidents: List[Incident] = []
        # Incident ids come from the journal a successor shares, so a
        # successor never reuses them; a standalone correlator counts alone.
        self._next_id = (
            partial(orchestrator.journal.next_id, "incident")
            if orchestrator is not None
            else count(1).__next__
        )

    # -- ingestion ---------------------------------------------------------------

    def ingest(self, alert: Alert) -> Optional[Incident]:
        """Fold ``alert`` in; returns a *new* incident if one opened."""
        incident = self._fold_target(alert)
        if incident is not None:
            self._absorb(incident, alert)
            return None
        incident = Incident(
            incident_id=self._next_id(),
            opened_at=alert.time,
            first_anomaly_at=alert.first_anomaly_at,
            klass="",
            severity=alert.severity,
        )
        self._absorb(incident, alert)
        self.incidents.append(incident)
        return incident

    # -- internals ---------------------------------------------------------------

    def _fold_target(self, alert: Alert) -> Optional[Incident]:
        for incident in reversed(self.incidents):
            if incident.status == RESOLVED:
                continue
            if alert.time - incident.last_alert_at <= WINDOW_S:
                return incident
            if incident.status == REMEDIATING and self._overlaps(incident, alert):
                # Late alert from the same blast radius (a starved
                # migration only notices after the correlation window).
                return incident
        return None

    def _overlaps(self, incident: Incident, alert: Alert) -> bool:
        if alert.kind in LINK_ALERT_KINDS:
            return alert.key in incident.links
        if alert.kind == "phi-spike":
            # Match suspects, not the full blast radius: a host that
            # merely *hosts an affected job* dying later is a second
            # incident (host failure during a fiber cut), not more of
            # the first one.
            return alert.key in incident.suspect_hosts
        return alert.key in incident.jobs or any(
            alert.key.startswith(j) for j in incident.jobs
        )

    def _absorb(self, incident: Incident, alert: Alert) -> None:
        incident.alerts.append(alert)
        incident.first_anomaly_at = min(
            incident.first_anomaly_at, alert.first_anomaly_at
        )
        if alert.severity == "critical":
            incident.severity = "critical"
        if alert.kind in LINK_ALERT_KINDS:
            incident.links.add(alert.key)
        elif alert.kind == "phi-spike":
            incident.hosts.add(alert.key)
            incident.suspect_hosts.add(alert.key)
        incident.klass = self._classify(incident)
        self._blast_radius(incident)

    def _classify(self, incident: Incident) -> str:
        kinds = {a.kind for a in incident.alerts}
        if "phi-spike" in kinds and "outage" not in kinds:
            return "host-failure"
        if "outage" in kinds:
            return "fiber-cut"
        degraded = {"bw-collapse", "latency-spike", "loss"} & kinds
        if degraded and incident.links and all(
            self._is_backbone(link) for link in incident.links
        ):
            return "degraded-wan"
        return "congestion"

    def _is_backbone(self, link_name: str) -> bool:
        return any(
            fnmatch.fnmatch(link_name, pattern)
            for pattern in BACKBONE_PATTERNS
        )

    def _blast_radius(self, incident: Incident) -> None:
        if self.orchestrator is None:
            return
        if incident.links:
            for request in self.orchestrator.affected_requests(
                sorted(incident.links)
            ):
                incident.request_ids.add(request.request_id)
                incident.jobs.add(request.job_id)
                incident.hosts.update(request.fleet_job.hosts())
        # A suspect host drags every job with a VM on it into the radius.
        for host in sorted(incident.suspect_hosts):
            for record in self.orchestrator.store.jobs_on(host):
                incident.jobs.add(record.job_id)
                incident.hosts.update(record.hosts())


__all__ = [
    "Incident",
    "IncidentCorrelator",
    "OPEN",
    "REMEDIATING",
    "RESOLVED",
    "LINK_ALERT_KINDS",
]
