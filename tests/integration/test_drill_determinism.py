"""Estate drills are deterministic per seed — also run after run in one
process — and their default arms reproduce the committed BENCH artifacts."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.incident.scenario import run_host_failure_scenario, run_incident_scenario
from repro.orchestrator.scenario import run_fleet_crash_scenario, run_fleet_scenario
from repro.sim.trace import Tracer

REPO = pathlib.Path(__file__).resolve().parents[2]

DRILLS = {
    "fleet-drain": lambda tracer: run_fleet_scenario(jobs=4, tracer=tracer),
    "fleet-crash": lambda tracer: run_fleet_crash_scenario(jobs=2, tracer=tracer),
    "fiber-cut": lambda tracer: run_incident_scenario(jobs=2, tracer=tracer),
    "host-kill": lambda tracer: run_host_failure_scenario(
        jobs=2, spares=1, tracer=tracer
    ),
}


@pytest.mark.parametrize("drill", sorted(DRILLS))
def test_same_seed_twice_in_one_process_gives_same_result_and_trace(drill):
    runs = []
    for _ in range(2):
        tracer = Tracer()
        result = DRILLS[drill](tracer)
        runs.append((result.to_dict(), list(tracer.iter_jsonl())))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


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
