"""Host-failure survivability: unannounced kill mid-drain, remediated
from proactive checkpoints.

Drains 4 MPI jobs while the fleet checkpoint service snapshots every
eligible job each period.  Once the first landed job holds a committed
generation, its host dies hard — no WARNING, no drain window.  Four arms:

* **autonomous** — the incident stack classifies the heartbeat silence
  ``host-failure``, falls through the impossible evacuation, and
  restores the dead job from its last committed generation on a leased
  spare: zero lost VMs, RPO within the checkpoint period, measured RTO;
* **baseline** — diagnosis only: the same kill, and the VMs stay lost;
* **crash** — the controller dies mid-restore; a successor resumes from
  the journal to the identical outcome without double-restoring;
* **overlap** — a WAN fiber cut and the host failure at once: both
  incidents resolve, sharing the spare pool with no double-reservation.

Writes ``BENCH_hostfail.json`` (repo root) with RPO/RTO and outcomes.
"""

from __future__ import annotations

import json
import pathlib

from repro.incident.runbook import RESTORE_BOOT_SITE
from repro.incident.scenario import run_host_failure_scenario

from benchmarks.conftest import run_once

ARTIFACT = pathlib.Path(__file__).parent.parent / "BENCH_hostfail.json"


def test_host_failure_survived_from_checkpoints(benchmark, record_result):
    def experiment():
        autonomous = run_host_failure_scenario(jobs=4, spares=2)
        baseline = run_host_failure_scenario(
            jobs=4, spares=2, autonomous=False
        )
        crash = run_host_failure_scenario(
            jobs=4, spares=2, crash_site=RESTORE_BOOT_SITE,
        )
        overlap = run_host_failure_scenario(jobs=4, spares=3, cut_at_s=6.0)
        return autonomous, baseline, crash, overlap

    autonomous, baseline, crash, overlap = run_once(benchmark, experiment)

    # The headline: the unannounced kill was remediated with zero lost
    # VMs, data loss bounded by the checkpoint period, and a measured
    # restore RTO.
    assert "host-failure" in autonomous.incident_classes
    assert autonomous.vms_lost_at_kill and autonomous.lost_vms == []
    assert autonomous.failed == 0 and autonomous.all_resolved
    assert autonomous.restored_jobs
    assert autonomous.generations_committed >= 1
    assert autonomous.rpo_s is not None
    assert autonomous.rpo_s <= autonomous.checkpoint_period_s
    assert autonomous.restore_rto_s is not None and autonomous.restore_rto_s > 0
    assert autonomous.double_restored == []
    assert autonomous.spare_double_leases == []

    # The baseline sees the same kill but has no restore path.
    assert "host-failure" in baseline.incident_classes
    assert baseline.restored_jobs == []
    assert baseline.lost_vms == sorted(baseline.vms_lost_at_kill)

    # Crash mid-restore: the successor resumes to the identical outcome
    # without double-restoring or double-leasing.
    assert crash.crashed and crash.resumed_incidents >= 1
    assert crash.all_resolved and crash.lost_vms == []
    assert crash.restored_jobs == autonomous.restored_jobs
    assert crash.double_restored == [] and crash.double_executed == []
    assert crash.spare_double_leases == []

    # Two overlapping incidents resolve, sharing the spare pool cleanly.
    assert {"fiber-cut", "host-failure"} <= set(overlap.incident_classes)
    assert overlap.all_resolved and overlap.lost_vms == []
    assert overlap.restored_jobs
    assert overlap.spare_double_leases == []

    payload = {
        "scenario": (
            "drain 4 jobs with periodic fleet checkpoints; kill the first "
            "covered host unannounced mid-drain"
        ),
        "autonomous": autonomous.to_dict(),
        "baseline": baseline.to_dict(),
        "crash_during_restore": crash.to_dict(),
        "overlapping_incidents": overlap.to_dict(),
    }
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")

    def _line(name, r):
        rpo = "-" if r.rpo_s is None else f"{r.rpo_s:5.1f} s"
        rto = "-" if r.restore_rto_s is None else f"{r.restore_rto_s:5.2f} s"
        return (f"  {name:<11} RPO={rpo:>7}/{r.rpo_bound_s:.0f} s  RTO={rto:>7}  "
                f"restored={len(r.restored_jobs)}  lost={len(r.lost_vms)}  "
                f"makespan={r.makespan_s:6.1f} s")

    record_result(
        "host_failure",
        "\n".join([
            "host-failure drill — 4 jobs, kill first covered host, "
            f"checkpoint period {autonomous.checkpoint_period_s:.0f} s",
            _line("autonomous", autonomous),
            _line("baseline", baseline),
            _line("crash+resume", crash),
            _line("overlap", overlap),
            f"[artifact: {ARTIFACT.name}]",
        ]),
    )
