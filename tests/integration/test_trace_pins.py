"""Trace pins for the control-plane drills.

``trace_pins.json`` holds, for each drill the fleet benchmark runs (the
8-job sequenced WAN drain, the fiber cut, the host kill) plus the fleet
drain whose controller crashes and a small scale campaign, a sha256 of
the drill's tracer JSONL, its record count and a sha256 of its outcome
(``to_dict``, less wall-clock fields).  A change to how the event kernel,
the MPI runtime or the fair-share service schedule work must leave all
three exactly as pinned: floats alone would not show two same-instant
records trading places.  The controller-crash, fiber-cut and host-kill
entries also pin a sha256 of the journal the drill's closing safety
check read (``MigrationJournal.dumps``), and every drill's journal must
read back from those bytes to the same replay answers, the same step
fold, and the same (empty) journal violations.  Every ``scale.migrated`` record carries the
migration's ``rounds`` and ``bytes``, so the scale entry also pins each
decision of the precopy stop rule on the fluid fleet.

Regenerate (only when a simulated result is meant to change) with
``PYTHONPATH=src python -m tests.integration.test_trace_pins``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.incident.scenario import run_host_failure_scenario, run_incident_scenario
from repro.orchestrator.continuous import ScaleConfig, run_scale_scenario
from repro.invariants import check
from repro.orchestrator.scenario import run_fleet_crash_scenario, run_fleet_scenario
from repro.recovery.journal import STEP_KINDS, MigrationJournal
from repro.sim.trace import Tracer
from tests.conftest import closing_checks, traced_violations
from tests.orchestrator.test_continuous import _SMALL

PINS = pathlib.Path(__file__).with_name("trace_pins.json")

DRILLS = {
    "fleet-drain-8": lambda tracer: run_fleet_scenario(jobs=8, tracer=tracer),
    "fleet-crash": lambda tracer: run_fleet_crash_scenario(tracer=tracer),
    "fiber-cut": lambda tracer: run_incident_scenario(tracer=tracer),
    "host-kill": lambda tracer: run_host_failure_scenario(tracer=tracer),
    "scale-small": lambda tracer: run_scale_scenario(ScaleConfig(**_SMALL), tracer=tracer),
}

#: Drills whose journal bytes are pinned as well.
JOURNAL_DRILLS = ("fiber-cut", "fleet-crash", "host-kill")

#: Wall-clock fields of a ``ScaleResult``: the outcome digest skips them.
WALL = {"wall_s", "solver_p50_s", "solver_p99_s", "solver_total_s",
        "events_per_s", "wall_s_per_sim_hour"}


def trace_sha256(tracer: Tracer) -> str:
    """sha256 of the tracer's JSONL, one newline-terminated line per record."""
    h = hashlib.sha256()
    for line in tracer.iter_jsonl():
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def run(drill: str):
    """(tracer, result, cluster, journal) of one traced drill run; the
    cluster and journal are those the drill's closing check read (None
    for the scale campaign, which keeps no journal)."""
    tracer = Tracer()
    with closing_checks() as seen:
        result = DRILLS[drill](tracer)
    cluster, journal = seen[-1] if seen else (None, None)
    return tracer, result, cluster, journal


def pin(drill: str, tracer: Tracer, result, journal) -> dict:
    outcome = {k: v for k, v in result.to_dict().items() if k not in WALL}
    outcome = json.dumps(outcome, sort_keys=True, default=str)
    entry = {
        "trace_sha256": trace_sha256(tracer),
        "records": len(tracer.records),
        "outcome_sha256": hashlib.sha256(outcome.encode()).hexdigest(),
    }
    if drill in JOURNAL_DRILLS:
        entry["journal_sha256"] = hashlib.sha256(journal.dumps().encode()).hexdigest()
    return entry


def replay_answers(journal: MigrationJournal) -> dict:
    """What crash recovery reads from a journal: the sequence snapshots,
    the open requests, and open? / committed (with payload)? / committed
    twice? for every journalled step."""
    return {
        "snapshots": journal.snapshots(),
        "unfinished_requests": journal.unfinished_requests(),
        "steps": {
            kind: [
                (s.key, s.open, s.commit.payload if s.commit else None, s.double)
                for s in journal.steps_of(kind)
            ]
            for kind in STEP_KINDS
        },
    }


@pytest.mark.parametrize("drill", sorted(DRILLS))
def test_drill_trace_matches_pin(drill):
    tracer, result, cluster, journal = run(drill)
    # Every drill ends safe: the estate fold traced no invariant violation.
    assert traced_violations(tracer) == []
    assert pin(drill, tracer, result, journal) == json.loads(PINS.read_text())[drill]
    if journal is None:
        return
    # The journal's own bytes fold back to the same answers.
    reloaded = MigrationJournal.loads(journal.dumps())
    assert reloaded.dumps() == journal.dumps()
    assert replay_answers(reloaded) == replay_answers(journal)
    assert check(cluster, reloaded, qemus=[]) == check(cluster, journal, qemus=[]) == []


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    pins = {}
    for drill in sorted(DRILLS):
        tracer, result, _, journal = run(drill)
        pins[drill] = pin(drill, tracer, result, journal)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}")
