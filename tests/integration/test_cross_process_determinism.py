"""Same seed, same trace — across interpreters with different hash seeds.

Directed links are interned and hash by identity, so a ``frozenset`` of
them (the fleet planner's link footprints) iterates in an order set by
their memory addresses, which depend on everything the process
allocated before.  These runs prove no output depends on that order or
on string hashing: a scale campaign, a fleet drain, a fleet drain whose
controller crashes (the one scenario that runs crash recovery end to
end), the fiber-cut and host-kill drills (whose telemetry withholds repeats through per-series
caches) and a Figure 7 MPI pair (CG class C), each run in two fresh
interpreters with different ``PYTHONHASHSEED`` and different padding
(throwaway links, each with its two directed views, built before each
run shift the addresses, hence the set positions, of every later
directed link), produce byte-identical traces and results.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[2]

_CHILD = """
import dataclasses, hashlib, json, sys
from repro.analysis.experiments import run_fig7_npb
from repro.incident.scenario import run_host_failure_scenario, run_incident_scenario
from repro.network.links import Link
from repro.orchestrator.continuous import ScaleConfig, run_scale_scenario
from repro.orchestrator.scenario import run_fleet_crash_scenario, run_fleet_scenario
from repro.sim.trace import Tracer

WALL = {"wall_s", "solver_p50_s", "solver_p99_s", "solver_total_s",
        "events_per_s", "wall_s_per_sim_hour"}


def digest(tracer, result):
    h = hashlib.sha256()
    for line in tracer.iter_jsonl():
        h.update(line.encode() + b"\\n")
    outcome = {k: v for k, v in result.to_dict().items() if k not in WALL}
    h.update(json.dumps(outcome, sort_keys=True, default=str).encode())
    return h.hexdigest(), len(tracer.records)


_pad = []


def pad():
    _pad.extend(Link("pad", 1.0) for _ in range(int(sys.argv[1])))


pad()
scale = Tracer()
result = run_scale_scenario(
    ScaleConfig(n_vms=64, k=4, vms_per_host=8, duration_s=300.0,
                arrival_rate_per_s=4.0, rack_local_frac=0.9,
                mix={"churn": 0.6, "consolidate": 0.2, "drain": 0.2}, seed=7),
    tracer=scale,
)
print("scale", *digest(scale, result))
pad()
fleet = Tracer()
print("fleet", *digest(fleet, run_fleet_scenario(jobs=2, tracer=fleet)))
pad()
crash = Tracer()
print("crash", *digest(crash, run_fleet_crash_scenario(jobs=2, tracer=crash)))
pad()
cut = Tracer()
print("cut", *digest(cut, run_incident_scenario(seed=0, tracer=cut)))
pad()
kill = Tracer()
print("kill", *digest(kill, run_host_failure_scenario(seed=0, tracer=kill)))
pad()
fig7 = dataclasses.asdict(run_fig7_npb("CG", class_name="C", migrate_after_s=20.0, seed=0))
print("mpi", hashlib.sha256(repr(sorted(fig7.items())).encode()).hexdigest(), len(fig7))
"""


def _spawn(hash_seed: str, pad: int) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(pad)],
        cwd=REPO, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def test_scale_and_fleet_traces_are_identical_across_hash_seeds():
    children = [_spawn("1", 0), _spawn("2", 1)]
    outputs = []
    for child in children:
        out, err = child.communicate(timeout=100)
        assert child.returncode == 0, err
        outputs.append(out.split())
    assert outputs[0] == outputs[1]
    # Six non-empty outcomes were digested: (name, digest, size) x 6.
    names, counts = outputs[0][0::3], outputs[0][2::3]
    assert names == ["scale", "fleet", "crash", "cut", "kill", "mpi"]
    assert all(int(n) > 0 for n in counts)
