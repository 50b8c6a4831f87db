"""Differential pins for the undo path (live rollback/degrade and recovery).

``undo_pins.json`` was recorded before the live controller and the crash
recovery pass were moved onto one shared undo module.  These tests
replay the same scenarios and compare:

* every ``ninja.<phase>`` abort, across the fallback, recovery and self
  plans (the ``linkup`` abort is the post-commit degrade): the rollback
  actions, the aborted sequence's journal records as
  ``(kind, phase, action)``, every trace record as ``(category, event)``
  and the simulated time the sequence returned at — all exactly;
* every controller crash point, plus both postcopy-switchover crash
  sites, followed by a recovery pass: each VM's final host, HCA
  attachment and parked state, and the time the pass finished.

Regenerate (only when a simulated result is meant to change) with
``PYTHONPATH=src python -m tests.recovery.test_undo_pins``.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core.ninja import PHASES, NinjaMigration
from repro.errors import ControllerCrashError
from repro.recovery.recovery import RecoveryManager
from repro.vmm.policy import MigrationPolicy
from tests.conftest import drive
from tests.integration.test_transactional_ninja import PLAN_KINDS, _arrange, _execute
from tests.recovery.test_crash_matrix import (
    ROLL_BACK_POINTS,
    ROLL_FORWARD_POINTS,
    _setup,
)

pytestmark = pytest.mark.faults

PINS = pathlib.Path(__file__).with_name("undo_pins.json")

#: (crash point, postcopy?) — the crash matrix plus the two postcopy sites.
CRASH_CASES = [(p, False) for p in ROLL_BACK_POINTS + ROLL_FORWARD_POINTS] + [
    ("postcopy.intent", True),
    ("postcopy.commit", True),
]


def _case_id(point: str, postcopy: bool) -> str:
    return f"{point}+postcopy" if postcopy else point


def abort_pin(phase: str, plan_kind: str) -> dict:
    cluster, vms, job, ninja, plan = _arrange(plan_kind)
    cluster.faults.arm(f"ninja.{phase}")
    result = _execute(cluster, ninja, job, plan)
    return {
        "rollback_actions": list(result.rollback_actions),
        "journal": [
            [r.kind, r.phase, r.payload.get("action", "")]
            for r in ninja.journal.records
            if r.mid == result.migration_id
        ],
        "trace": [[r.category, r.event] for r in cluster.tracer.records],
        "now": cluster.env.now,
    }


def crash_pin(point: str, postcopy: bool) -> dict:
    cluster, vms, job = _setup()
    policy = MigrationPolicy(postcopy="always") if postcopy else None
    ninja = NinjaMigration(cluster, migration_policy=policy)
    plan = ninja.fallback_plan(vms, ["eth01", "eth02"])
    cluster.faults.arm(f"controller.crash.{point}", error=ControllerCrashError)

    def run():
        try:
            yield from ninja.execute(job, plan)
        except ControllerCrashError:
            pass
        yield from RecoveryManager(cluster, ninja.journal).recover(reason=point)

    drive(cluster.env, run(), name="crash+recover")
    vms_state = {}
    for q in vms:
        assignment = q.assignments.get(plan.detach_tag)
        attached = assignment is not None and assignment.attached
        vms_state[q.vm.name] = {
            "host": q.node.name,
            "hca_attached": attached,
            "hca_bus_host": next(
                (n.name for n in cluster.nodes.values()
                 if attached and assignment.backing.slot.bus is n.pci),
                None,
            ),
            "parked": q.vm.hypercall.parked,
        }
    return {"vms": vms_state, "now": cluster.env.now}


def collect() -> dict:
    return {
        "aborts": {
            f"{phase}/{kind}": abort_pin(phase, kind)
            for phase in PHASES
            for kind in PLAN_KINDS
        },
        "crashes": {
            _case_id(point, postcopy): crash_pin(point, postcopy)
            for point, postcopy in CRASH_CASES
        },
    }


def _pins() -> dict:
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("plan_kind", PLAN_KINDS)
@pytest.mark.parametrize("phase", PHASES)
def test_live_abort_matches_pin(phase, plan_kind):
    pinned = _pins()["aborts"][f"{phase}/{plan_kind}"]
    fresh = json.loads(json.dumps(abort_pin(phase, plan_kind)))
    assert fresh["rollback_actions"] == pinned["rollback_actions"]
    assert fresh["journal"] == pinned["journal"]
    assert fresh["trace"] == pinned["trace"]
    assert fresh["now"] == pinned["now"]


@pytest.mark.parametrize(
    "point, postcopy", CRASH_CASES, ids=[_case_id(*c) for c in CRASH_CASES]
)
def test_crash_recovery_outcome_matches_pin(point, postcopy):
    pinned = _pins()["crashes"][_case_id(point, postcopy)]
    fresh = json.loads(json.dumps(crash_pin(point, postcopy)))
    assert fresh["vms"] == pinned["vms"]
    assert fresh["now"] == pinned["now"]


def dump(pins: dict) -> str:
    """JSON with one line per case, sections and cases in key order, so
    a regeneration with no moved value rewrites the file byte for byte."""
    sections = [
        f"{json.dumps(name)}: {{\n"
        + ",\n".join(
            f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(cases.items())
        )
        + "\n}"
        for name, cases in sorted(pins.items())
    ]
    return "{\n" + ",\n".join(sections) + "\n}\n"


def test_pins_file_is_in_dump_order():
    text = PINS.read_text()
    assert dump(json.loads(text)) == text


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    PINS.write_text(dump(collect()))
    print(f"wrote {PINS}")
