"""Same seed, same output: every scenario of ``tests/golden.py`` matches
its entry in ``tests/golden.json`` in this process, its journal (when it
keeps one) folds back from its own bytes, and the default arms of the
drills reproduce the committed BENCH artifacts.  The same entries are
checked again in a child interpreter with another hash seed
(``integration/test_cross_process_determinism.py``) and, for the drills,
twice in one process (``integration/test_drill_determinism.py``).
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.incident.scenario import run_host_failure_scenario, run_incident_scenario
from repro.invariants import check
from repro.orchestrator.scenario import run_fleet_scenario
from repro.recovery.journal import STEP_KINDS, MigrationJournal
from tests import golden
from tests.conftest import traced_violations

REPO = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = json.loads(golden.GOLDEN.read_text())


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


@pytest.mark.parametrize("name", sorted(golden.SCENARIOS))
def test_run_matches_golden(name):
    run = golden.run(name)
    # Every drill ends safe: the estate fold traced no invariant violation.
    assert [traced_violations(t) for t in run.tracers] == [[] for _ in run.tracers]
    assert golden.digest(run) == GOLDEN[name]
    if run.journal is None:
        return
    # The journal's own bytes fold back to the same answers.
    journal = run.journal
    reloaded = MigrationJournal.loads(journal.dumps())
    assert reloaded.dumps() == journal.dumps()
    assert replay_answers(reloaded) == replay_answers(journal)
    assert check(run.cluster, reloaded, qemus=[]) == check(run.cluster, journal, qemus=[]) == []


@pytest.mark.parametrize(
    "artifact, arm, run",
    [
        ("BENCH_fleet.json", "sequenced",
         lambda: run_fleet_scenario(jobs=8, sequenced=True)),
        ("BENCH_incident.json", "autonomous",
         lambda: run_incident_scenario(jobs=4, autonomous=True)),
        ("BENCH_hostfail.json", "autonomous",
         lambda: run_host_failure_scenario(jobs=4, spares=2)),
    ],
)
def test_default_arm_matches_committed_bench_artifact(artifact, arm, run):
    committed = json.loads((REPO / artifact).read_text())[arm]
    fresh = json.loads(json.dumps(run().to_dict()))
    assert sorted(fresh) == sorted(committed)
    for key, value in committed.items():
        assert fresh[key] == value, key

