"""Incident response: the mid-drain fiber cut, diagnosed and routed around.

Drains 4 MPI jobs while the WAN fiber to the backup site goes dark 6 s
in and stays dark for 120 s.  Three arms:

* **autonomous** — the incident stack detects the cut from telemetry,
  classifies it ``fiber-cut``, and runs the runbook (blacklist, postcopy
  fallback, viability floor, evacuation, await-heal, readmit);
* **baseline** — diagnosis only: the incident is classified but nothing
  remediates, so service waits for the fiber;
* **crash** — the controller dies mid-evacuation and a successor resumes
  the runbook from the journal without double-executing a step.

Writes ``BENCH_incident.json`` (repo root) with MTTD/MTTR and outcomes.
"""

from __future__ import annotations

import json
import pathlib

from repro.incident.scenario import CRASH_SITE, run_incident_scenario

from benchmarks.conftest import run_once

ARTIFACT = pathlib.Path(__file__).parent.parent / "BENCH_incident.json"


def test_fiber_cut_detected_and_remediated(benchmark, record_result):
    def experiment():
        autonomous = run_incident_scenario(jobs=4, autonomous=True)
        baseline = run_incident_scenario(jobs=4, autonomous=False)
        crash = run_incident_scenario(jobs=4, autonomous=True, crash_site=CRASH_SITE)
        return autonomous, baseline, crash

    autonomous, baseline, crash = run_once(benchmark, experiment)

    # The headline: diagnosed as a fiber cut, remediated with zero lost
    # VMs, and service restored while the fiber was still dark.
    assert autonomous.incident_class == "fiber-cut"
    assert autonomous.mttd_s is not None and autonomous.mttd_s < 2.0
    assert autonomous.mttr_s is not None
    assert autonomous.mttr_s < autonomous.heal_after_s
    assert autonomous.lost_vms == [] and autonomous.failed == 0
    assert autonomous.all_resolved and autonomous.evacuated_jobs

    # The baseline sees the same cut but never moves a VM.
    assert baseline.incident_class == "fiber-cut"
    assert baseline.evacuated_jobs == [] and baseline.mttr_s is None

    # Crash mid-remediation: the successor finishes the same runbook
    # without double-executing a journaled step.
    assert crash.crashed and crash.resumed_incidents >= 1
    assert crash.double_executed == []
    assert crash.lost_vms == [] and crash.failed == 0
    assert crash.all_resolved

    payload = {
        "scenario": "drain 4 jobs; WAN fiber cut at t+6 s, dark for 120 s",
        "autonomous": autonomous.to_dict(),
        "baseline": baseline.to_dict(),
        "crash_during_remediation": crash.to_dict(),
    }
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")

    def _line(name, r):
        mttr = "-" if r.mttr_s is None else f"{r.mttr_s:7.1f} s"
        return (f"  {name:<11} MTTD={r.mttd_s:5.2f} s  MTTR={mttr:>9}  "
                f"evacuated={len(r.evacuated_jobs)}  lost={len(r.lost_vms)}  "
                f"makespan={r.makespan_s:6.1f} s")

    record_result(
        "incident_response",
        "\n".join([
            "fiber-cut drill — 4 jobs, 120 s WAN outage at t+6 s",
            _line("autonomous", autonomous),
            _line("baseline", baseline),
            _line("crash+resume", crash),
            f"[artifact: {ARTIFACT.name}]",
        ]),
    )
