"""Deterministic work guard: page accounting indexes only the pages it touches.

Every accounting read of ``GuestMemory`` goes through ``_tally``, the one
place that indexes the page-class array.  Wrapping it counts the pages
each step indexes — exact on any runner, unlike a wall-clock budget.
"""

from __future__ import annotations

import pytest

from repro.core.plan import MigrationPlan
from repro.errors import MigrationError
from repro.orchestrator.planner import PlannedMigration, WavePlanner
from repro.orchestrator.scenario import build_fleet_cluster
from repro.testbed import create_job, provision_vms
from repro.units import GiB
from repro.vmm.guest_memory import GuestMemory, PageClass
from repro.vmm.policy import MigrationPolicy
from repro.vmm.qemu import QemuProcess

from tests.conftest import drive


@pytest.fixture
def tally(monkeypatch):
    """Counts pages indexed and whole-RAM scans per ``GuestMemory``."""
    work = {"pages": 0, "whole_ram": {}}
    original = GuestMemory._tally

    def counted(memory, pages):
        if pages is None:
            work["pages"] += memory.npages
            work["whole_ram"][id(memory)] = work["whole_ram"].get(id(memory), 0) + 1
        else:
            work["pages"] += len(pages)
        return original(memory, pages)

    monkeypatch.setattr(GuestMemory, "_tally", counted)
    return work


def test_postcopy_drain_indexes_each_page_at_most_once(cluster, tally):
    qemu = QemuProcess(cluster, cluster.node("ib01"), "vm1", memory_bytes=4 * GiB)
    qemu.boot()
    qemu.vm.memory.write(1 * GiB, 1 * GiB, PageClass.DATA)
    npages = qemu.vm.memory.npages
    env = cluster.env

    def main(env):
        yield env.timeout(1.0)
        job = qemu.migrate(cluster.node("ib02"), policy=MigrationPolicy(postcopy="always"))
        try:
            yield job.done
        except MigrationError:
            pass
        return job

    job = drive(env, main(env))

    assert job.stats.status == "completed" and job.stats.mode == "postcopy"
    # 32 chunks of 128 MiB; the old per-chunk rescan indexed 32 x npages.
    assert job.stats.scanned_pages == npages
    assert 0 < tally["pages"] <= npages


def test_repeated_refresh_counts_each_idle_guest_once(tally):
    cluster = build_fleet_cluster(4)
    planned = []
    for index, (src, dst) in enumerate([("ib01", "eth03"), ("ib02", "eth01")]):
        qemus = provision_vms(cluster, [src], memory_bytes=4 * GiB, name_prefix=f"j{index}")
        job = create_job(cluster, qemus)
        drive(cluster.env, job.init(), name=f"init.j{index}")
        qemus[0].vm.memory.write(0, (index + 1) * GiB // 4, PageClass.DATA)
        plan = MigrationPlan.build(cluster, qemus, [dst], attach_ib=False)
        planned.append(PlannedMigration(plan))
    tally["pages"] = 0
    tally["whole_ram"].clear()

    for _ in range(5):
        for item in planned:
            item.refresh(cluster)
    WavePlanner(cluster).destination_swap(planned)

    assert len(tally["whole_ram"]) == len(planned)
    assert all(scans == 1 for scans in tally["whole_ram"].values())
    npages = planned[0].plan.entries[0].qemu.vm.memory.npages
    assert tally["pages"] <= len(planned) * npages
