"""Admission control: priority queue and backpressure.

The fleet accepts more migration requests than the fabric can absorb at
once.  The :class:`AdmissionController` holds a priority queue of
:class:`MigrationRequest` objects and releases them subject to:

* **priority** — higher-priority requests (health-driven evacuations)
  are considered first; ties break FIFO;
* **one sequence per job** — a job with a migration running keeps its
  next request queued;
* **link budget** (applied by the executor after placement) — requests
  whose planned path would push a link's in-flight migration bytes past
  the budget are *deferred*, never dropped: they keep their queue
  position and are reconsidered when capacity frees.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import count
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.errors import FleetError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.ninja import NinjaResult
    from repro.orchestrator.state import FleetJob
    from repro.sim.events import Event

#: Request lifecycle states.
PENDING = "pending"
RUNNING = "running"
COMPLETED = "completed"
ABORTED = "aborted"      # terminal: retries exhausted, VMs back at origin
FAILED = "failed"        # terminal: unrecoverable (rollback failed / no placement)
CANCELLED = "cancelled"  # terminal: withdrawn by the operator / incident response

TERMINAL_STATES = (COMPLETED, ABORTED, FAILED, CANCELLED)

#: Attempts a request gets before an abort-and-rollback is final.
MAX_ATTEMPTS = 3


@dataclass(eq=False)
class MigrationRequest:
    """One queued unit of fleet work: migrate a job's VM group somewhere."""

    fleet_job: "FleetJob"
    #: "fallback" | "recovery" | "evacuate" | "spread"
    kind: str = "fallback"
    priority: int = 0
    #: Explicit destinations ("spread" kind); other kinds auto-place.
    dst_hosts: Optional[List[str]] = None
    #: Assigned by :meth:`FleetOrchestrator.submit` from the journal.
    request_id: int = 0
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    status: str = PENDING
    #: Destinations that aborted a previous attempt — never retried.
    blacklist: Set[str] = field(default_factory=set)
    attempts: int = 0
    #: Lowered by an incident runbook to stop a request's retries.
    max_attempts: int = MAX_ATTEMPTS
    result: Optional["NinjaResult"] = None
    #: Why the request last failed to start (diagnostics).
    defer_reason: str = ""
    error: str = ""
    #: Incident that submitted this request (spare-arbiter accounting);
    #: None for ordinary tenant/health-driven work.
    incident_id: Optional[int] = None
    #: Fires (with this request) on reaching a terminal state.
    done: Optional["Event"] = None

    @property
    def job_id(self) -> str:
        return self.fleet_job.job_id

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATES

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.job_id}#{self.attempts + 1}"

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<MigrationRequest #{self.request_id} {self.kind} {self.job_id} "
            f"prio={self.priority} {self.status}>"
        )


@dataclass
class AdmissionStats:
    """Backpressure accounting (exported into the benchmark artifact)."""

    submitted: int = 0
    admitted: int = 0
    #: Deferral events by reason ("job-busy", "vm-down", "link-budget",
    #: "link-conflict", "no-placement", "degraded-link", "reservation").
    deferred: Dict[str, int] = field(default_factory=dict)

    @property
    def deferred_total(self) -> int:
        return sum(self.deferred.values())

    def defer(self, reason: str) -> None:
        self.deferred[reason] = self.deferred.get(reason, 0) + 1


class AdmissionController:
    """Priority queue that admits one running sequence per job."""

    def __init__(self) -> None:
        #: (-priority, seq, request) — heap order is admission order.
        self._heap: List[tuple] = []
        self._seq = count()
        self.stats = AdmissionStats()

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def pending(self) -> List[MigrationRequest]:
        # Terminal entries (cancelled while queued) stay in the heap until
        # select() pops them; they are no longer pending work.
        return [
            entry[2] for entry in sorted(self._heap) if not entry[2].terminal
        ]

    def submit(self, request: MigrationRequest, requeue: bool = False) -> None:
        if request.terminal:
            raise FleetError(f"cannot queue terminal request {request!r}")
        request.status = PENDING
        heapq.heappush(self._heap, (-request.priority, next(self._seq), request))
        if not requeue:
            self.stats.submitted += 1

    def select(self, inflight: List[MigrationRequest]) -> List[MigrationRequest]:
        """Pop every request whose job has no sequence running, in order.

        ``inflight`` is the executor's currently-running request list.
        Requests of a busy job stay queued (with the deferral counted);
        the caller applies the placement/link gates to the returned batch
        and re-submits members it cannot start.
        """
        busy_jobs = {request.job_id for request in inflight}

        batch: List[MigrationRequest] = []
        kept: List[tuple] = []
        while self._heap:
            key = heapq.heappop(self._heap)
            request = key[2]
            if request.terminal:  # withdrawn while queued
                continue
            if request.job_id in busy_jobs:
                request.defer_reason = "job-busy"
                self.stats.defer("job-busy")
                kept.append(key)
                continue
            batch.append(request)
            busy_jobs.add(request.job_id)
        for key in kept:
            heapq.heappush(self._heap, key)
        self.stats.admitted += len(batch)
        return batch
