"""Wave planner: footprints, wave grouping, destination swaps."""

import pytest

from repro.core.plan import MigrationPlan
from repro.orchestrator.planner import MIN_ESTIMATE_BYTES, PlannedMigration, WavePlanner
from repro.orchestrator.scenario import build_fleet_cluster
from repro.testbed import create_job, provision_vms
from repro.units import GiB, MiB
from repro.vmm.guest_memory import PageClass

from tests.conftest import drive


@pytest.fixture
def fleet4():
    """4 IB sources, eth01/eth02 local, eth03/eth04 behind a 1 Gbit WAN."""
    return build_fleet_cluster(4)


def _vm(cluster, host, prefix, data_bytes=0):
    qemus = provision_vms(cluster, [host], memory_bytes=4 * GiB, name_prefix=prefix)
    job = create_job(cluster, qemus)
    drive(cluster.env, job.init(), name=f"init.{prefix}")
    if data_bytes:
        qemus[0].vm.memory.write(0, data_bytes, PageClass.DATA)
    return qemus


def _plan(cluster, qemus, dst):
    return MigrationPlan.build(cluster, qemus, [dst], attach_ib=False)


def _analyze(cluster, plans):
    return [PlannedMigration(plan).refresh(cluster) for plan in plans]


def test_footprint_tracks_bytes_and_links(fleet4):
    qemus = _vm(fleet4, "ib01", "a", data_bytes=512 * MiB)
    planner = WavePlanner(fleet4)
    [item] = _analyze(fleet4, [_plan(fleet4, qemus, "eth03")])
    # Estimate = resident DATA pages (what actually loads the wire):
    # the 512 MiB written here plus the guest OS's boot residue.
    resident = qemus[0].vm.memory.data_bytes
    assert resident >= 512 * MiB
    assert item.est_bytes == resident
    # ib01 → primary switch → WAN → backup switch → eth03.
    assert len(item.links) == 3
    assert all(nbytes == resident for nbytes in item.bytes_by_link.values())


def test_zero_data_vm_still_costs_the_floor():
    from types import SimpleNamespace

    from repro.orchestrator.planner import estimate_entry_bytes

    entry = SimpleNamespace(
        qemu=SimpleNamespace(vm=SimpleNamespace(memory=SimpleNamespace(data_bytes=0)))
    )
    assert estimate_entry_bytes(entry) == MIN_ESTIMATE_BYTES


def test_waves_serialise_shared_links(fleet4):
    a = _vm(fleet4, "ib01", "a", data_bytes=64 * MiB)
    b = _vm(fleet4, "ib02", "b", data_bytes=64 * MiB)
    c = _vm(fleet4, "ib03", "c", data_bytes=64 * MiB)
    planner = WavePlanner(fleet4)
    planned = _analyze(fleet4, [
        _plan(fleet4, a, "eth03"),  # over the WAN
        _plan(fleet4, b, "eth04"),  # over the WAN — collides with a
        _plan(fleet4, c, "eth01"),  # local — disjoint
    ])
    waves = planner.waves(planned)
    assert [len(w) for w in waves] == [2, 1]
    assert planned[0] in waves[0] and planned[2] in waves[0]
    assert planned[1] in waves[1]


def test_waves_respect_busy_links(fleet4):
    a = _vm(fleet4, "ib01", "a", data_bytes=64 * MiB)
    b = _vm(fleet4, "ib02", "b", data_bytes=64 * MiB)
    planner = WavePlanner(fleet4)
    planned = _analyze(fleet4, [
        _plan(fleet4, a, "eth03"),
        _plan(fleet4, b, "eth01"),
    ])
    # A running migration already owns the WAN: the WAN-bound plan must wait.
    busy = planned[0].links
    waves = planner.waves(planned, busy_links=busy)
    assert planned[0] in waves[1]
    assert planned[1] in waves[0]


def test_destination_swap_moves_big_job_off_the_wan(fleet4):
    big = _vm(fleet4, "ib01", "big", data_bytes=1 * GiB)
    small = _vm(fleet4, "ib02", "small", data_bytes=32 * MiB)
    planner = WavePlanner(fleet4)
    plan_big = _plan(fleet4, big, "eth03")      # big over the WAN: bad
    plan_small = _plan(fleet4, small, "eth01")  # small local
    planned = _analyze(fleet4, [plan_big, plan_small])
    planner.destination_swap(planned)
    assert planner.swaps_applied == 1
    assert plan_big.entries[0].dst_host == "eth01"
    assert plan_small.entries[0].dst_host == "eth03"


def test_destination_swap_keeps_good_assignment(fleet4):
    big = _vm(fleet4, "ib01", "big", data_bytes=1 * GiB)
    small = _vm(fleet4, "ib02", "small", data_bytes=32 * MiB)
    planner = WavePlanner(fleet4)
    plan_big = _plan(fleet4, big, "eth01")
    plan_small = _plan(fleet4, small, "eth03")
    planned = _analyze(fleet4, [plan_big, plan_small])
    planner.destination_swap(planned)
    assert planner.swaps_applied == 0
    assert plan_big.entries[0].dst_host == "eth01"
