"""Admission controller: priority order, the job-busy gate, backpressure."""

import pytest

from repro.errors import FleetError
from repro.orchestrator.admission import (
    COMPLETED,
    AdmissionController,
    MigrationRequest,
)
from repro.orchestrator.state import FleetJob


def _request(job_id, tenant="default", priority=0, kind="fallback"):
    record = FleetJob(job_id=job_id, tenant=tenant, job=None, qemus=[])
    return MigrationRequest(fleet_job=record, kind=kind, priority=priority)


def test_priority_order_with_fifo_ties():
    ctl = AdmissionController()
    low = _request("a", priority=0)
    high = _request("b", priority=100)
    low2 = _request("c", priority=0)
    for r in (low, high, low2):
        ctl.submit(r)
    assert ctl.select(inflight=[]) == [high, low, low2]
    assert len(ctl) == 0


def test_job_busy_gate_defers():
    ctl = AdmissionController()
    first = _request("a")
    second = _request("a")  # same job
    ctl.submit(first)
    ctl.submit(second)
    batch = ctl.select(inflight=[])
    assert batch == [first]
    assert second.defer_reason == "job-busy"
    assert ctl.stats.deferred["job-busy"] == 1
    # Deferred, not dropped: it comes out once the job is free again.
    assert ctl.select(inflight=[]) == [second]


def test_requeue_does_not_recount_submission():
    ctl = AdmissionController()
    r = _request("a")
    ctl.submit(r)
    assert ctl.stats.submitted == 1
    [r] = ctl.select(inflight=[])
    ctl.submit(r, requeue=True)
    assert ctl.stats.submitted == 1
    assert len(ctl) == 1


def test_terminal_requests_are_rejected_and_skipped():
    ctl = AdmissionController()
    r = _request("a")
    ctl.submit(r)
    r.status = COMPLETED
    with pytest.raises(FleetError):
        ctl.submit(_request_terminal())
    assert ctl.select(inflight=[]) == []  # withdrawn while queued


def _request_terminal():
    r = _request("t")
    r.status = COMPLETED
    return r
