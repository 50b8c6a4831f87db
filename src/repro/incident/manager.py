"""The self-healing controller: telemetry → alerts → incidents → runbooks.

:class:`IncidentManager` wires the whole pipeline around a
:class:`~repro.orchestrator.executor.FleetOrchestrator`:

* a :class:`~repro.incident.telemetry.LinkTelemetryProbe` samples the
  fabric (and heartbeat phi) onto a :class:`TelemetryBus`;
* a :class:`~repro.incident.telemetry.TracerBridge` republishes live
  migration-round trace records;
* every published sample runs synchronously through the detectors of
  its stream; alerts feed the
  :class:`~repro.incident.correlator.IncidentCorrelator`;
* after each link-state sample the manager notes whether every detector
  on its stream is :meth:`~repro.incident.detectors.Detector.idle` at
  that value, and its probe withholds repeats of such a value — so
  link-state telemetry costs work in proportion to change, not to
  links x ticks;
* each newly opened incident spawns a journaled
  :class:`~repro.incident.runbook.RunbookExecutor` remediation process
  (when ``autonomous`` — otherwise incidents are only diagnosed).

A :class:`~repro.errors.ControllerCrashError` escaping a remediation
marks the manager crashed; a successor manager constructed over the same
journal calls :meth:`resume` — committed runbook steps are skipped, the
interrupted one re-runs (all actions are idempotent), so the cluster
converges without double-executing remediation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import ControllerCrashError, ReproError
from repro.incident.correlator import RESOLVED, Incident, IncidentCorrelator
from repro.incident.detectors import Alert, Detector, default_detectors
from repro.incident.runbook import RunbookExecutor, RunbookStep
from repro.incident.telemetry import (
    LINK_STATE_STREAMS,
    LinkTelemetryProbe,
    TelemetryBus,
    TelemetrySample,
    TracerBridge,
)
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.cluster import Cluster
    from repro.orchestrator.executor import FleetOrchestrator
    from repro.recovery.checkpoints import FleetCheckpointService
    from repro.recovery.failure_detector import HeartbeatMonitor
    from repro.recovery.journal import MigrationJournal


def incidents_from_journal(journal: "MigrationJournal") -> List[Incident]:
    """Rebuild unresolved incidents from their ``incident-open`` records.

    Crash-recovery entry point: the successor controller has no live
    correlator state, only the journal.  Resolved incidents are skipped.
    """
    rebuilt: List[Incident] = []
    for step in journal.steps_of("incident"):
        if not step.open:
            continue
        record = step.intents[0]
        p = record.payload
        rebuilt.append(
            Incident(
                incident_id=int(step.key),  # type: ignore[call-overload]
                opened_at=float(p.get("opened_at", record.time)),  # type: ignore[arg-type]
                first_anomaly_at=float(p.get("first_anomaly_at", record.time)),  # type: ignore[arg-type]
                klass=str(p.get("klass", "")),
                severity="critical",
                links=set(p.get("links", ())),  # type: ignore[arg-type]
                hosts=set(p.get("hosts", ())),  # type: ignore[arg-type]
                suspect_hosts=set(p.get("suspect_hosts", ())),  # type: ignore[arg-type]
                jobs=set(p.get("jobs", ())),  # type: ignore[arg-type]
            )
        )
    return rebuilt


class IncidentManager:
    """Detection + diagnosis + (optionally) autonomous remediation."""

    def __init__(
        self,
        cluster: "Cluster",
        orchestrator: "FleetOrchestrator",
        heartbeats: Optional["HeartbeatMonitor"] = None,
        bus: Optional[TelemetryBus] = None,
        detectors: Optional[List[Detector]] = None,
        correlator: Optional[IncidentCorrelator] = None,
        runbook: Optional[Dict[str, Tuple[RunbookStep, ...]]] = None,
        probe_period_s: float = 0.25,
        autonomous: bool = True,
        checkpoints: Optional["FleetCheckpointService"] = None,
    ) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.orchestrator = orchestrator
        self.autonomous = autonomous
        self.bus = bus if bus is not None else TelemetryBus()
        self.detectors = (
            list(detectors) if detectors is not None else default_detectors()
        )
        self.correlator = (
            correlator
            if correlator is not None
            else IncidentCorrelator(cluster, orchestrator)
        )
        self.executor = RunbookExecutor(
            cluster, orchestrator, journal=orchestrator.journal,
            runbook=runbook, checkpoints=checkpoints,
        )
        self.probe = LinkTelemetryProbe(
            cluster, self.bus, heartbeats=heartbeats, period_s=probe_period_s
        )
        #: Per link-state stream, each key's last delivered value while
        #: every detector on the stream is idle at it (the probe withholds
        #: a repeat of it).
        self._idle_values: Dict[str, Dict[str, float]] = {
            stream: {} for stream in LINK_STATE_STREAMS
        }
        self.probe.idle_values = self._idle_values
        self._routes: Dict[str, List[Detector]] = {}
        self.bridge = (
            TracerBridge(cluster.tracer, self.bus)
            if cluster.tracer is not None
            else None
        )
        self.alerts: List[Alert] = []
        self.incidents: List[Incident] = []
        self.crashed = False
        self.crash_error = ""
        self.crash_event = Event(self.env)
        self._procs: List[object] = []
        self._unsub = None

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "IncidentManager":
        """Attach producers/detectors and begin sampling."""
        self._routes = {}
        for detector in self.detectors:
            self._routes.setdefault(detector.stream, []).append(detector)
        for idle_at in self._idle_values.values():
            idle_at.clear()  # detectors must see the next sample of every series
        if self._unsub is None:
            self._unsub = self.bus.subscribe(self._on_sample)
        if self.bridge is not None:
            self.bridge.attach()
        self.probe.start()
        return self

    def stop(self) -> None:
        self.probe.stop()
        if self.bridge is not None:
            self.bridge.detach()
        if self._unsub is not None:
            self._unsub()
            self._unsub = None

    def resume(self) -> List[Incident]:
        """Re-execute unresolved incidents journaled by a dead manager.

        Committed runbook steps are skipped via the journal fold; the
        step that held the intent at crash time re-runs.  Returns the
        incidents taken over.
        """
        taken = incidents_from_journal(self.orchestrator.journal)
        for incident in taken:
            self.incidents.append(incident)
            # Register with the (fresh) correlator so ongoing alerts from
            # the same blast radius fold in instead of opening a duplicate.
            self.correlator.incidents.append(incident)
            self.cluster.trace(
                "incident", "resumed", incident=incident.incident_id,
                klass=incident.klass,
            )
            self._spawn_remediation(incident)
        return taken

    # -- pipeline ----------------------------------------------------------------

    def _on_sample(self, sample: TelemetrySample) -> None:
        detectors = self._routes.get(sample.stream, ())
        for detector in detectors:
            alert = detector.observe(sample)
            if alert is None:
                continue
            self.alerts.append(alert)
            self.cluster.trace(
                "incident", "alert", detector=alert.detector, kind=alert.kind,
                key=alert.key, severity=alert.severity, value=alert.value,
            )
            incident = self.correlator.ingest(alert)
            if incident is None:
                continue
            self.incidents.append(incident)
            self.cluster.trace(
                "incident", "opened", incident=incident.incident_id,
                klass=incident.klass, severity=incident.severity,
                links=sorted(incident.links), jobs=sorted(incident.jobs),
                mttd_s=round(incident.mttd_s, 4),
            )
            if self.autonomous and not self.crashed:
                self._spawn_remediation(incident)
        idle_at = self._idle_values.get(sample.stream)
        if idle_at is not None:
            key, value = sample.key, sample.value
            if all(d.idle(key, value) for d in detectors):
                idle_at[key] = value
            else:
                idle_at.pop(key, None)

    def _spawn_remediation(self, incident: Incident) -> None:
        self._procs.append(
            self.env.process(
                self._remediate(incident),
                name=f"incident.remediate.{incident.incident_id}",
            )
        )

    def _remediate(self, incident: Incident):
        try:
            yield from self.executor.execute(incident)
        except ControllerCrashError as err:
            # The controller died mid-remediation.  Journal nothing more;
            # a successor manager resumes from the last committed step.
            self.crashed = True
            self.crash_error = str(err)
            self.cluster.trace(
                "incident", "controller_crash",
                incident=incident.incident_id, error=str(err),
            )
            if not self.crash_event.triggered:
                self.crash_event.succeed(self)
        except ReproError as err:
            # Remediation exhausted its runbook (no spare capacity, no
            # checkpoint to restore, ...).  The incident stays open for
            # operators; the controller itself must keep running.
            self.cluster.trace(
                "incident", "remediation_failed",
                incident=incident.incident_id, error=str(err),
            )

    # -- reporting ---------------------------------------------------------------

    @property
    def settled(self) -> bool:
        """Every known incident fully remediated (or none ever opened)."""
        return all(i.status == RESOLVED for i in self.incidents)


__all__ = ["IncidentManager", "incidents_from_journal"]
