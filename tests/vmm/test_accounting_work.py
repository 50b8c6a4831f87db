"""Deterministic work guard: page accounting visits only the runs it touches.

Every accounting read of ``GuestMemory`` goes through ``_tally``, the one
place that reads the page-class run map, and ``_tally`` reads each class
run it visits through ``_run_end``.  Wrapping both counts the class runs
each step visits — exact on any runner, unlike a wall-clock budget.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.plan import MigrationPlan
from repro.errors import MigrationError
from repro.hardware.cluster import Cluster
from repro.hardware.specs import AGC_NODE_SPEC
from repro.orchestrator.planner import PlannedMigration, WavePlanner
from repro.orchestrator.scenario import build_fleet_cluster
from repro.testbed import create_job, provision_vms
from repro.units import GiB, MiB
from repro.vmm.guest_memory import GuestMemory, PageClass
from repro.vmm.policy import MigrationPolicy
from repro.vmm.qemu import QemuProcess

from tests.conftest import drive


@pytest.fixture
def tally(monkeypatch):
    """Per ``_tally`` call: (memory id, class runs in the map, runs visited)."""
    work = {"calls": [], "inside": False}
    original_tally = GuestMemory._tally
    original_run_end = GuestMemory._run_end

    def counted_tally(memory, pages):
        work["inside"] = True
        work["calls"].append([id(memory), len(memory._classes), 0])
        try:
            return original_tally(memory, pages)
        finally:
            work["inside"] = False

    def counted_run_end(memory, index):
        if work["inside"]:
            work["calls"][-1][2] += 1
        return original_run_end(memory, index)

    monkeypatch.setattr(GuestMemory, "_tally", counted_tally)
    monkeypatch.setattr(GuestMemory, "_run_end", counted_run_end)
    return work


def _postcopy_drain(cluster, memory_bytes):
    qemu = QemuProcess(cluster, cluster.node("ib01"), "vm1", memory_bytes=memory_bytes)
    qemu.boot()
    qemu.vm.memory.write(1 * GiB, 1 * GiB, PageClass.DATA)
    qemu.vm.memory.write(2 * GiB + 64 * MiB, 512 * MiB, PageClass.UNIFORM)
    env = cluster.env

    def main(env):
        yield env.timeout(1.0)
        job = qemu.migrate(cluster.node("ib02"), policy=MigrationPolicy(postcopy="always"))
        try:
            yield job.done
        except MigrationError:
            pass
        return job

    return drive(env, main(env))


def test_postcopy_drain_indexes_each_page_at_most_once(cluster, tally):
    job = _postcopy_drain(cluster, 4 * GiB)
    memory = job.qemu.vm.memory

    assert job.stats.status == "completed" and job.stats.mode == "postcopy"
    # Every page is priced exactly once across the chunks.
    assert job.stats.scanned_pages == memory.npages
    # 32 chunks of 128 MiB walk the class map in order: each chunk visits
    # the run it starts in, plus one more per run boundary it crosses.
    chunks = len(tally["calls"])
    visited = sum(runs for _, _, runs in tally["calls"])
    class_runs = len(memory._classes)
    assert chunks == 32
    assert chunks <= visited <= chunks + class_runs - 1


def _big_node_cluster(memory_bytes):
    cluster = Cluster()
    spec = dataclasses.replace(AGC_NODE_SPEC, memory_bytes=memory_bytes)
    for name in ("ib01", "ib02"):
        cluster.add_node(name, spec)
    cluster.wire_ethernet()
    cluster.wire_infiniband(["ib01", "ib02"])
    return cluster


def test_postcopy_drain_work_per_chunk_is_independent_of_ram_size(tally):
    """A 4 GiB and a 64 GiB guest with the same written regions cross the
    same class-run boundaries; only the chunk count grows with RAM."""
    work = {}
    for size in (4 * GiB, 64 * GiB):
        tally["calls"].clear()
        job = _postcopy_drain(_big_node_cluster(128 * GiB), size)
        assert job.stats.status == "completed"
        assert job.stats.scanned_pages == job.qemu.vm.memory.npages
        visits = [runs for _, _, runs in tally["calls"]]
        work[size] = (len(visits), sum(visits) - len(visits), max(visits))

    (chunks_small, crossed_small, most_small) = work[4 * GiB]
    (chunks_big, crossed_big, most_big) = work[64 * GiB]
    assert chunks_big == 16 * chunks_small
    assert crossed_big == crossed_small > 0
    assert most_big == most_small


def test_each_refresh_visits_at_most_the_guests_class_runs(tally):
    cluster = build_fleet_cluster(4)
    planned = []
    for index, (src, dst) in enumerate([("ib01", "eth03"), ("ib02", "eth01")]):
        qemus = provision_vms(cluster, [src], memory_bytes=4 * GiB, name_prefix=f"j{index}")
        job = create_job(cluster, qemus)
        drive(cluster.env, job.init(), name=f"init.j{index}")
        qemus[0].vm.memory.write(0, (index + 1) * GiB // 4, PageClass.DATA)
        plan = MigrationPlan.build(cluster, qemus, [dst], attach_ib=False)
        planned.append(PlannedMigration(plan))
    tally["calls"].clear()

    for _ in range(5):
        for item in planned:
            item.refresh(cluster)
    WavePlanner(cluster).destination_swap(planned)

    guests = {id(item.plan.entries[0].qemu.vm.memory) for item in planned}
    assert {memory for memory, _, _ in tally["calls"]} == guests
    # A whole-RAM count visits every class run of that guest, and no more:
    # two or three runs here, against the 1 M pages the guest holds.
    assert all(visited <= class_runs for _, class_runs, visited in tally["calls"])
    assert all(class_runs <= 3 for _, class_runs, _ in tally["calls"])
