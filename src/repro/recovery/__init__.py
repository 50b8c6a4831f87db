"""Controller crash-recovery: journal, reconciliation, failure detection.

Four pieces close the control plane's single point of failure:

* :mod:`repro.recovery.journal` — the write-ahead migration journal
  every Ninja sequence and fleet request appends to;
* :mod:`repro.recovery.recovery` — the :class:`RecoveryManager` that
  replays the journal after a controller crash, reconciles it against
  observed VMM/agent/HCA state, and rolls each in-flight sequence
  forward or back;
* :mod:`repro.recovery.undo` — the one definition of every undo step,
  shared by the live controller's rollback/degrade, crash recovery and
  a failed proactive checkpoint;
* :mod:`repro.recovery.failure_detector` — phi-accrual heartbeats, the
  ``host.phi`` source the incident pipeline's telemetry probe samples,
  with fencing epochs (:mod:`repro.symvirt.fencing`) so a superseded
  controller cannot double-drive QMP.

Only ``RecoveryManager`` is loaded lazily: the journal must stay
importable from :mod:`repro.core.ninja` without dragging in the
scheduler stack (which imports ninja right back).
"""

from repro.recovery.failure_detector import (
    HeartbeatMonitor,
    PhiAccrualFailureDetector,
)
from repro.recovery.journal import (
    JournalRecord,
    MigrationJournal,
    MigrationSnapshot,
)

__all__ = [
    "JournalRecord",
    "MigrationJournal",
    "MigrationSnapshot",
    "RecoveryManager",
    "RecoveryReport",
    "HeartbeatMonitor",
    "PhiAccrualFailureDetector",
]


def __getattr__(name):
    if name in ("RecoveryManager", "RecoveryReport"):
        from repro.recovery import recovery

        return getattr(recovery, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
