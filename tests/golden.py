"""The golden record: every same-seed output that tier-1 pins.

``SCENARIOS`` names each pinned run; :func:`record` runs one and returns
what "the same output" means for it:

- ``traces``: for every :class:`~repro.sim.trace.Tracer` the run built,
  in creation order, a sha256 of its JSONL (one newline-terminated line
  per record) and its record count.  Floats alone would not show two
  same-instant records trading places;
- ``outcome_sha256``: a sha256 of the result's ``to_dict()``, less the
  wall-clock fields of a ``ScaleResult``;
- ``journal_sha256``: a sha256 of the journal the drill's closing safety
  check read (``MigrationJournal.dumps``), when the run keeps one;
- ``events``/``processes``: the kernel's work, events processed and
  processes started over every environment the run started one in;
- ``floats`` (Figure 7 pairs only, which have no ``to_dict``): the
  ``repr`` of the pair's seven simulated times, to the last digit.

``golden.json`` holds the record of every scenario and
``tests/test_golden.py`` checks it.  Regenerate (only when a simulated
result is meant to change) with ``PYTHONPATH=src python -m tests.golden``:
it rewrites the whole file and prints ``entry.field: old → new`` for
every value that moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pathlib
from dataclasses import dataclass

from repro.analysis.experiments import run_fig7_npb
from repro.incident.scenario import run_host_failure_scenario, run_incident_scenario
from repro.orchestrator import scenario
from repro.orchestrator.continuous import ScaleConfig, run_scale_scenario
from repro.orchestrator.scenario import run_fleet_scenario
from repro.sim.core import Environment
from repro.sim.trace import Tracer

GOLDEN = pathlib.Path(__file__).with_name("golden.json")


def _fig7(bench: str):
    return lambda: run_fig7_npb(bench, class_name="C", migrate_after_s=20.0, seed=0)


#: name -> a zero-argument call that runs the scenario.  The drills are
#: the fleet benchmark's (8-job sequenced drain, fiber cut, host kill),
#: the controller-crash drain, and smaller variants of each; the scale
#: entries are a small campaign and the 64-VM campaign whose
#: ``scale.migrated`` records carry each precopy stop decision.
SCENARIOS = {
    "fleet-drain-2": lambda: run_fleet_scenario(jobs=2, tracer=Tracer()),
    "fleet-drain-4": lambda: run_fleet_scenario(jobs=4, tracer=Tracer()),
    "fleet-drain-8": lambda: run_fleet_scenario(jobs=8, tracer=Tracer()),
    "fleet-crash": lambda: run_fleet_scenario(jobs=4, crash_at_s=5.0, tracer=Tracer()),
    "fleet-crash-2": lambda: run_fleet_scenario(jobs=2, crash_at_s=5.0, tracer=Tracer()),
    "fiber-cut": lambda: run_incident_scenario(tracer=Tracer()),
    "fiber-cut-2": lambda: run_incident_scenario(jobs=2, tracer=Tracer()),
    "host-kill": lambda: run_host_failure_scenario(tracer=Tracer()),
    "host-kill-2": lambda: run_host_failure_scenario(jobs=2, spares=1, tracer=Tracer()),
    "scale-small": lambda: run_scale_scenario(
        ScaleConfig(n_vms=24, k=4, vms_per_host=4, duration_s=60.0,
                    arrival_rate_per_s=2.0, seed=11),
        tracer=Tracer(),
    ),
    "scale-64": lambda: run_scale_scenario(
        ScaleConfig(n_vms=64, k=4, vms_per_host=8, duration_s=300.0,
                    arrival_rate_per_s=4.0, rack_local_frac=0.9,
                    mix={"churn": 0.6, "consolidate": 0.2, "drain": 0.2}, seed=7),
        tracer=Tracer(),
    ),
    "fig7-cg": _fig7("CG"),
    "fig7-ft": _fig7("FT"),
}

#: Wall-clock fields of a ``ScaleResult``: the outcome digest skips them.
WALL = {"wall_s", "solver_p50_s", "solver_p99_s", "solver_total_s",
        "events_per_s", "wall_s_per_sim_hour"}


@contextlib.contextmanager
def closing_checks():
    """Record the ``(cluster, journal, books)`` that every drill's closing
    :func:`repro.invariants.check` (``Estate.fold``) reads inside the block."""
    seen: list = []
    real = scenario.check

    def spy(cluster, journal=None, **books):
        seen.append((cluster, journal, books))
        return real(cluster, journal, **books)

    scenario.check = spy
    try:
        yield seen
    finally:
        scenario.check = real


@dataclass
class Run:
    """One scenario run and what it built: the cluster and journal are
    those the drill's closing safety check read (None when it has none)."""

    result: object
    tracers: list
    started: dict  # environment -> processes started in it
    cluster: object
    journal: object


def run(name: str) -> Run:
    """Run scenario ``name``, capturing every tracer it builds and
    counting the processes it starts in each environment."""
    tracers: list = []
    started: dict = {}
    tracer_init, process = Tracer.__init__, Environment.process

    def tracing(tracer):
        tracer_init(tracer)
        tracers.append(tracer)

    def counting(env, generator, name=""):
        started[env] = started.get(env, 0) + 1
        return process(env, generator, name)

    Tracer.__init__, Environment.process = tracing, counting
    try:
        with closing_checks() as seen:
            result = SCENARIOS[name]()
    finally:
        Tracer.__init__, Environment.process = tracer_init, process
    cluster, journal, _ = seen[-1] if seen else (None, None, None)
    return Run(result, tracers, started, cluster, journal)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(run: Run) -> dict:
    """The golden entry of one run (see the module docstring)."""
    entry = {
        "traces": [
            {"records": len(t.records),
             "sha256": _sha256("".join(f"{line}\n" for line in t.iter_jsonl()))}
            for t in run.tracers
        ],
        "events": sum(env.events_processed for env in run.started),
        "processes": sum(run.started.values()),
    }
    result = run.result
    if hasattr(result, "to_dict"):
        outcome = {k: v for k, v in result.to_dict().items() if k not in WALL}
        entry["outcome_sha256"] = _sha256(json.dumps(outcome, sort_keys=True, default=str))
    else:
        b = result.breakdown
        entry["floats"] = {
            "baseline_s": repr(result.baseline_s),
            "proposed_s": repr(result.proposed_s),
            "overhead_s": repr(result.overhead_s),
            "coordination_s": repr(b.coordination_s),
            "hotplug_s": repr(b.hotplug_s),
            "migration_s": repr(b.migration_s),
            "linkup_s": repr(b.linkup_s),
        }
    if run.journal is not None:
        entry["journal_sha256"] = _sha256(run.journal.dumps())
    return entry


def record(name: str) -> dict:
    """Run scenario ``name`` and return its golden entry."""
    return digest(run(name))


def _flatten(value, path: str, out: dict) -> dict:
    """Leaf values of nested dicts/lists keyed ``a.b[0].c``."""
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(item, f"{path}[{i}]", out)
    else:
        out[path] = value
    return out


def changes(old: dict, new: dict) -> list:
    """``entry.field: old → new`` for every value that differs."""
    before, after = _flatten(old, "", {}), _flatten(new, "", {})
    return [
        f"{key}: {before.get(key, '-')} → {after.get(key, '-')}"
        for key in sorted(before.keys() | after.keys())
        if before.get(key) != after.get(key)
    ]


def dumps(entries: dict) -> str:
    """``golden.json``'s text: keys sorted, one block per scenario and one
    line per field, so a diff reads per scenario and field."""
    blocks = []
    for name, entry in sorted(entries.items()):
        lines = (f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(entry.items()))
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(lines) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    new = {name: record(name) for name in SCENARIOS}
    GOLDEN.write_text(dumps(new))
    for line in changes(old, new):
        print(line)
    print(f"wrote {GOLDEN}")
