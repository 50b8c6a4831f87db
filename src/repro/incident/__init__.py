"""Autonomous incident response: telemetry → alerts → incidents → runbooks.

The pipeline that lets the fleet survive a mid-drain fiber cut without
operator intervention:

* :mod:`repro.incident.telemetry` — streaming :class:`TelemetryBus` fed
  by a :class:`LinkTelemetryProbe` (fabric goodput/loss/latency/outage,
  heartbeat phi) and a :class:`TracerBridge` (live migration rounds);
* :mod:`repro.incident.detectors` — pluggable anomaly detectors with
  debounce + hysteresis emitting typed :class:`Alert` objects;
* :mod:`repro.incident.correlator` — folds concurrent alerts into one
  classified :class:`Incident` with a blast radius;
* :mod:`repro.incident.runbook` — declarative incident-class → action
  table executed with timeouts/retries and journaled for crash recovery;
* :mod:`repro.incident.manager` — the :class:`IncidentManager` wiring it
  all around a :class:`~repro.orchestrator.executor.FleetOrchestrator`;
* :mod:`repro.incident.scenario` — the estate drill runner (fiber cut,
  host kill, checkpointing, controller crash) and its two presets.
"""

from repro.incident.correlator import (
    LINK_ALERT_KINDS,
    OPEN,
    REMEDIATING,
    RESOLVED,
    Incident,
    IncidentCorrelator,
)
from repro.incident.detectors import (
    Alert,
    BandwidthCollapseDetector,
    Detector,
    LatencySpikeDetector,
    LossRateDetector,
    NonConvergenceDetector,
    OutageDetector,
    PhiSpikeDetector,
    default_detectors,
)
from repro.incident.manager import IncidentManager, incidents_from_journal
from repro.incident.runbook import DEFAULT_RUNBOOK, RunbookExecutor, RunbookStep
from repro.incident.telemetry import (
    HOST_PHI,
    LINK_GOODPUT,
    LINK_LATENCY,
    LINK_LOSS,
    LINK_UP,
    MIGRATION_ROUND,
    LinkTelemetryProbe,
    TelemetryBus,
    TelemetrySample,
    TracerBridge,
)

__all__ = [
    "Alert",
    "BandwidthCollapseDetector",
    "DEFAULT_RUNBOOK",
    "Detector",
    "HOST_PHI",
    "Incident",
    "IncidentCorrelator",
    "IncidentManager",
    "LINK_ALERT_KINDS",
    "LINK_GOODPUT",
    "LINK_LATENCY",
    "LINK_LOSS",
    "LINK_UP",
    "LatencySpikeDetector",
    "LinkTelemetryProbe",
    "LossRateDetector",
    "MIGRATION_ROUND",
    "NonConvergenceDetector",
    "OPEN",
    "OutageDetector",
    "PhiSpikeDetector",
    "REMEDIATING",
    "RESOLVED",
    "RunbookExecutor",
    "RunbookStep",
    "TelemetryBus",
    "TelemetrySample",
    "TracerBridge",
    "default_detectors",
    "incidents_from_journal",
]
