"""Fleet orchestration: concurrent multi-job Ninja migrations.

The :mod:`repro.orchestrator` package is the fleet-level control plane
above the single-job :class:`~repro.core.scheduler.CloudScheduler`:

* :mod:`~repro.orchestrator.state` — global truth (jobs, reservations,
  in-flight migrations); prevents double-booking host RAM or HCAs;
* :mod:`~repro.orchestrator.placement` — the shared, reservation-aware
  placement engine (also used by the cloud scheduler);
* :mod:`~repro.orchestrator.planner` — bandwidth-aware wave sequencing
  and the destination-swap post-pass;
* :mod:`~repro.orchestrator.admission` — priority queue, one running
  sequence per job, backpressure (defer, never drop);
* :mod:`~repro.orchestrator.executor` — the
  :class:`~repro.orchestrator.executor.FleetOrchestrator` running
  admitted plans through the transactional Ninja sequence.

:mod:`~repro.orchestrator.scenario` (the two-site estate and the drain
preset behind ``repro fleet`` and the throughput benchmark) is
intentionally *not* imported here — import it explicitly.
"""

from repro.orchestrator.admission import (
    ABORTED,
    COMPLETED,
    FAILED,
    PENDING,
    RUNNING,
    TERMINAL_STATES,
    AdmissionController,
    AdmissionStats,
    MigrationRequest,
)
from repro.orchestrator.executor import FleetConfig, FleetOrchestrator
from repro.orchestrator.placement import PlacementEngine
from repro.orchestrator.planner import (
    MIN_ESTIMATE_BYTES,
    PlannedMigration,
    WavePlanner,
    estimate_entry_bytes,
    migration_links,
)
from repro.orchestrator.state import FleetJob, FleetStateStore, Reservation

__all__ = [
    "ABORTED",
    "COMPLETED",
    "FAILED",
    "MIN_ESTIMATE_BYTES",
    "PENDING",
    "RUNNING",
    "TERMINAL_STATES",
    "AdmissionController",
    "AdmissionStats",
    "FleetConfig",
    "FleetJob",
    "FleetOrchestrator",
    "FleetStateStore",
    "MigrationRequest",
    "PlacementEngine",
    "PlannedMigration",
    "Reservation",
    "WavePlanner",
    "estimate_entry_bytes",
    "migration_links",
]
