"""The invariant checker, one rule per row.

Each row breaks exactly one rule of :func:`repro.invariants.check` on a
one-VM world and asserts exactly that violation; the documented
exceptions are rows that must stay clean.  The drill rows check that the
scenario runners report through the checker: a clean drill traces no
violation, deliberate wreckage traces every one.
"""

from types import SimpleNamespace

import pytest

from repro.hardware.cluster import build_agc_cluster
from repro.invariants import check
from repro.orchestrator.scenario import run_fleet_scenario
from repro.orchestrator.state import FleetStateStore, SpareArbiter
from repro.recovery.journal import MigrationJournal
from repro.sim.trace import Tracer
from repro.testbed import provision_vms
from repro.units import GiB
from repro.vmm.vm import RunState
from tests.conftest import traced_violations


class World:
    """ib01 hosts vm1 with its HCA warm-attached; empty books."""

    def __init__(self):
        self.cluster = build_agc_cluster(ib_nodes=2, eth_nodes=2)
        (self.q,) = provision_vms(self.cluster, ["ib01"], memory_bytes=1 * GiB)
        self.journal = MigrationJournal().bind(self.cluster.env)
        self.store = FleetStateStore(self.cluster)
        self.arbiter = SpareArbiter(self.cluster)

    def check(self):
        return check(
            self.cluster, self.journal, qemus=[self.q], store=self.store,
            arbiter=self.arbiter,
        )


def _park(w):
    channel = w.q.vm.hypercall
    channel.register(1)
    w.cluster.env.process(channel.symvirt_wait())
    w.cluster.env.run(until=w.cluster.env.now + 1.0)


def _unbind_driver(w):
    w.q.vm.kernel.device_removing(w.q.assignments["vf0"].function)


def _oversubscribe(w):
    node = w.cluster.node("eth01")
    w.store.reserve("eth01", int(node.free_memory), owner="plan")
    node.reserve_memory(1 * GiB)  # a VM landed behind the books' back
    w.journal = None  # mid-drain audit: claims may be live


def _drive_negative(w):
    # No public path drives a RAM pool below zero; force the reading.
    w.cluster.node("eth02").memory._level = -1.0


def _paused_after_postcopy(status):
    def apply(w):
        w.q.vm.set_state(RunState.PAUSED)
        w.q.current_migration = SimpleNamespace(
            stats=SimpleNamespace(mode="postcopy", status=status)
        )
    return apply


def _journal(*records):
    def apply(w):
        for kind, payload in records:
            w.journal.append(kind, **payload)
    return apply


_ACTION = {"incident": 1, "step": 0, "action": "readmit"}
_RESTORE = {"incident": 1, "job": "j0", "generation": 1}

ROWS = {
    # -- VMs
    "shut-off": (lambda w: w.q.shutdown(), [("lost", "vm1")]),
    "leaked-park": (_park, [("lost", "vm1")]),
    "split-brain": (
        lambda w: w.cluster.node("ib02").register_vm(w.q), [("placement", "vm1")]
    ),
    "dead-host": (lambda w: setattr(w.q.node, "failed", True), [("placement", "vm1")]),
    "paused": (lambda w: w.q.vm.set_state(RunState.PAUSED), [("run-state", "vm1")]),
    "paused-after-postcopy-completed": (
        _paused_after_postcopy("completed"), [("run-state", "vm1")]
    ),
    "dirty-logging": (
        lambda w: w.q.vm.memory.start_dirty_logging(), [("dirty-logging", "vm1")]
    ),
    "throttle": (lambda w: setattr(w.q.vm, "cpu_throttle", 0.2), [("throttle", "vm1")]),
    # The VM moved while its passthrough HCA stayed seated at the origin.
    "hca-wrong-bus": (
        lambda w: w.q.relocate(w.cluster.node("ib02")), [("hca-bus", "vm1")]
    ),
    "hca-no-driver": (_unbind_driver, [("hca-driver", "vm1")]),
    # -- journal
    "open-sequence": (
        _journal(("begin", {"mid": "p@1", "label": "p"})), [("open-sequence", "p@1")]
    ),
    "open-request": (
        _journal(("request", {"request": 1, "job": "j0"})), [("open-request", 1)]
    ),
    "open-action": (
        _journal(("incident-action-intent", _ACTION)), [("open-action", (1, 0))]
    ),
    "double-action": (
        _journal(
            ("incident-action-intent", _ACTION),
            ("incident-action-commit", _ACTION),
            ("incident-action-commit", _ACTION),
        ),
        [("double-action", (1, 0))],
    ),
    "open-incident": (
        _journal(("incident-open", {"incident": 1})), [("open-incident", 1)]
    ),
    "open-restore": (
        _journal(("restore-intent", _RESTORE)), [("open-restore", (1, "j0"))]
    ),
    "double-restore": (
        _journal(
            ("restore-intent", _RESTORE),
            ("restore-commit", _RESTORE),
            ("restore-commit", _RESTORE),
        ),
        [("double-restore", (1, "j0"))],
    ),
    "stale-restore": (
        _journal(
            ("checkpoint-commit", {"job": "j0", "generation": 1, "consistency_at": 1.0}),
            ("checkpoint-commit", {"job": "j0", "generation": 2, "consistency_at": 2.0}),
            ("restore-intent", _RESTORE),
            ("restore-commit", _RESTORE),
        ),
        [("stale-restore", (1, "j0"))],
    ),
    # -- capacity
    "oversubscribed": (_oversubscribe, [("oversubscribed", "eth01")]),
    "negative-free": (_drive_negative, [("negative-free", "eth02")]),
    "leaked-claim": (
        lambda w: w.store.reserve("eth01", 1 * GiB, owner="gone"),
        [("leaked-claim", "eth01")],
    ),
    "leaked-inflight": (
        lambda w: w.store.begin_migration("gone", SimpleNamespace(label="p")),
        [("leaked-inflight", "p")],
    ),
    "double-lease": (
        lambda w: w.arbiter.double_leases.append(("sp01", 1, 2)),
        [("double-lease", ("sp01", 1, 2))],
    ),
    # -- documented exceptions: clean
    "clean": (lambda w: None, []),
    "postcopy-loss-pause": (_paused_after_postcopy("failed"), []),
    "uncommitted-checkpoint": (
        _journal(("checkpoint-intent", {"job": "j0", "generation": 1})), []
    ),
}


@pytest.mark.parametrize("row", sorted(ROWS))
def test_each_rule_reports_exactly_its_violation(row):
    breaks, expected = ROWS[row]
    world = World()
    breaks(world)
    assert [(v.rule, v.subject) for v in world.check()] == expected


def test_default_vms_are_the_residents():
    world = World()
    world.q.vm.memory.start_dirty_logging()
    assert [v.rule for v in check(world.cluster)] == ["dirty-logging"]


def test_unrecovered_crash_traces_its_wreckage():
    """``--no-recover`` leaves parked VMs and open requests on purpose:
    the fold traces every violation and names the parked VMs lost."""
    tracer = Tracer()
    result = run_fleet_scenario(jobs=4, crash_at_s=5.0, recover=False, tracer=tracer)
    traced = traced_violations(tracer)
    assert result.lost_vms
    assert sorted(v["subject"] for v in traced if v["rule"] == "lost") == result.lost_vms
    assert {"open-request", "open-sequence"} <= {v["rule"] for v in traced}
