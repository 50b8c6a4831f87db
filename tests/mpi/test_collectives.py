"""Unit + property tests: collective algorithms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.cluster import build_agc_cluster
from repro.testbed import create_job, provision_vms
from repro.units import GiB, MiB
from tests.conftest import drive


def _job(nvms=2, ppv=2):
    cluster = build_agc_cluster(ib_nodes=max(nvms, 1), eth_nodes=0)
    hosts = [f"ib{i + 1:02d}" for i in range(nvms)]
    vms = provision_vms(cluster, hosts, memory_bytes=4 * GiB)
    job = create_job(cluster, vms, procs_per_vm=ppv)
    drive(cluster.env, job.init(), name="init")
    return cluster, job


def _run_collective(cluster, job, rank_main):
    job.launch(rank_main)
    cluster.env.run(until=job.wait())


def test_barrier_synchronizes():
    cluster, job = _job()
    env = cluster.env
    exit_times = {}

    def rank_main(proc, comm):
        yield env.timeout(float(comm.rank))  # stagger arrivals
        yield from comm.barrier()
        exit_times[comm.rank] = env.now
        return None

    _run_collective(cluster, job, rank_main)
    assert max(exit_times.values()) - min(exit_times.values()) < 0.1
    assert min(exit_times.values()) >= 3.0  # slowest arrival gates everyone


def _bcast_exits(cluster, job, view_of, ranks, root, nbytes):
    """Each rank's bcast exit time, when the root enters a second after
    the others, and the time it entered: a rank can leave only once the
    root's data reached it."""
    env = cluster.env
    exits, entered = {}, []

    def rank_main(proc, comm):
        view = view_of(proc, comm)
        if view is None:
            return None
        if view.rank == root:
            yield env.timeout(1.0)
            entered.append(env.now)
        yield from view.bcast(nbytes, root=root)
        exits[view.rank] = env.now
        return None
        yield  # pragma: no cover

    job.launch(rank_main)
    env.run(until=job.wait())
    assert sorted(exits) == list(ranks)
    return entered[0], exits


def test_bcast_delivers_value_to_all():
    """The root's payload reaches every rank: none leaves before the root
    entered, and the data takes time to arrive."""
    cluster, job = _job(nvms=2, ppv=4)  # 8 ranks
    entered, exits = _bcast_exits(
        cluster, job, lambda proc, comm: comm, range(8), root=3, nbytes=1 * MiB
    )
    assert all(at > entered for rank, at in exits.items() if rank != 3)


def test_bcast_large_message_time():
    """Binomial bcast of B bytes over 2 inter-VM ranks ≈ B / IB rate.

    Timing is measured relative to rank start (BTL construction during
    MPI_Init happens before t0).
    """
    cluster, job = _job(nvms=2, ppv=1)
    env = cluster.env
    t = {}

    def rank_main(proc, comm):
        t0 = env.now
        yield from comm.bcast(3 * GiB, root=0)
        t[comm.rank] = env.now - t0
        return None

    _run_collective(cluster, job, rank_main)
    assert t[1] == pytest.approx(1.0, rel=0.05)  # 3 GiB at 3 GiB/s


def test_reduce_charges_operator_compute():
    cluster, job = _job(nvms=2, ppv=1)
    env = cluster.env
    elapsed = {}

    def rank_main(proc, comm):
        t0 = env.now
        yield from comm.reduce(1 * GiB, root=0)
        elapsed[comm.rank] = env.now - t0
        return None

    _run_collective(cluster, job, rank_main)
    transfer = 1 * GiB / cluster.calibration.ib_link_Bps
    op = 1 * GiB / cluster.calibration.reduce_op_Bps
    assert elapsed[0] == pytest.approx(transfer + op, rel=0.1)


def test_allreduce_completes_all_ranks():
    cluster, job = _job(nvms=2, ppv=2)
    done = []

    def rank_main(proc, comm):
        yield from comm.allreduce(4 * MiB)
        done.append(comm.rank)
        return None

    _run_collective(cluster, job, rank_main)
    assert sorted(done) == [0, 1, 2, 3]


def test_alltoall():
    cluster, job = _job(nvms=2, ppv=2)
    phases = []

    def rank_main(proc, comm):
        yield from comm.alltoall(1 * MiB)
        if comm.rank == 0:
            phases.append("alltoall")
        return None

    _run_collective(cluster, job, rank_main)
    assert phases == ["alltoall"]


@given(
    nranks=st.sampled_from([1, 2, 3, 4, 6, 8]),
    root=st.integers(min_value=0, max_value=7),
)
@settings(max_examples=20, deadline=None)
def test_bcast_any_size_any_root(nranks, root):
    """Binomial bcast terminates and delivers for every size/root combo."""
    root = root % nranks
    cluster, job = _job(nvms=1, ppv=nranks)
    entered, exits = _bcast_exits(
        cluster, job, lambda proc, comm: comm, range(nranks), root=root, nbytes=1024
    )
    assert all(at >= entered for at in exits.values())


@given(nranks=st.sampled_from([2, 3, 5, 8]))
@settings(max_examples=12, deadline=None)
def test_reduce_terminates_non_power_of_two(nranks):
    cluster, job = _job(nvms=1, ppv=nranks)
    done = []

    def rank_main(proc, comm):
        yield from comm.reduce(2048, root=0)
        done.append(comm.rank)
        return None

    _run_collective(cluster, job, rank_main)
    assert len(done) == nranks


def test_communicator_split():
    cluster, job = _job(nvms=2, ppv=2)
    sub = job.world.split([0, 2])
    assert sub.size == 2
    view = sub.view(0)
    assert view.rank == 0
    entered, exits = _bcast_exits(
        cluster, job,
        lambda proc, comm: sub.view(proc.rank) if proc.rank in (0, 2) else None,
        range(2), root=0, nbytes=1024,
    )
    # Sub-rank 1 (world rank 2) waited for sub-rank 0's data.
    assert exits[1] > entered
