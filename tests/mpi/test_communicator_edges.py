"""Unit tests: communicator edge cases and error paths."""

import pytest

from repro.errors import MpiError
from repro.hardware.cluster import build_agc_cluster
from repro.mpi.communicator import Communicator
from repro.testbed import create_job, provision_vms
from repro.units import GiB, KiB
from tests.conftest import drive


@pytest.fixture
def job4():
    cluster = build_agc_cluster(ib_nodes=2, eth_nodes=0)
    vms = provision_vms(cluster, ["ib01", "ib02"], memory_bytes=4 * GiB)
    job = create_job(cluster, vms, procs_per_vm=2)
    drive(cluster.env, job.init(), name="init")
    return cluster, job


def test_empty_communicator_rejected(job4):
    cluster, job = job4
    with pytest.raises(MpiError):
        Communicator(job, [])


def test_view_requires_membership(job4):
    cluster, job = job4
    sub = job.world.split([0, 1])
    with pytest.raises(MpiError):
        sub.view(3)


def test_comm_rank_mapping(job4):
    cluster, job = job4
    sub = job.world.split([2, 0])  # world ranks, order defines comm ranks
    assert sub.view(2).rank == 0
    assert sub.view(0).rank == 1
    assert sub.size == 2


def test_send_to_out_of_range_rank(job4):
    cluster, job = job4

    def rank_main(proc, comm):
        if comm.rank == 0:
            with pytest.raises(MpiError):
                yield from comm.send(99, 1024)
        yield from comm.barrier()
        return None

    job.launch(rank_main)
    cluster.env.run(until=job.wait())


def test_distinct_communicators_do_not_cross_match(job4):
    """A message on comm A never satisfies a recv on comm B."""
    cluster, job = job4
    env = cluster.env
    sub = job.world.split([0, 1])
    got = []

    def rank_main(proc, comm):
        if proc.rank == 0:
            sub_view = sub.view(0)
            # Same peer and tag; the sizes tell the two messages apart.
            yield from sub_view.send(1, 1 * KiB, tag=5)
            yield from comm.send(1, 2 * KiB, tag=5)
        elif proc.rank == 1:
            world_msg = yield from comm.recv(0, tag=5)
            got.append(("world", world_msg.nbytes, world_msg.comm_id))
            sub_view = sub.view(1)
            sub_msg = yield from sub_view.recv(0, tag=5)
            got.append(("sub", sub_msg.nbytes, sub_msg.comm_id))
        return None

    job.launch(rank_main)
    env.run(until=job.wait())
    assert ("world", 2 * KiB, job.world.comm_id) in got
    assert ("sub", 1 * KiB, sub.comm_id) in got


def test_zero_byte_messages_deliver_values(job4):
    """A zero-byte message still delivers its envelope."""
    cluster, job = job4
    got = {}

    def rank_main(proc, comm):
        if comm.rank == 0:
            yield from comm.send(1, 0, tag=1)
        elif comm.rank == 1:
            message = yield from comm.recv(0, tag=1)
            got["envelope"] = (message.src, message.dst, message.tag, message.nbytes)
        return None

    job.launch(rank_main)
    cluster.env.run(until=job.wait())
    assert got["envelope"] == (0, 1, 1, 0)


def test_self_loop_workloads_single_rank():
    """size-1 collectives are no-ops and return promptly."""
    cluster = build_agc_cluster(ib_nodes=1, eth_nodes=0)
    vms = provision_vms(cluster, ["ib01"], memory_bytes=4 * GiB)
    job = create_job(cluster, vms, procs_per_vm=1)
    drive(cluster.env, job.init(), name="init")
    done = []

    def rank_main(proc, comm):
        yield from comm.barrier()
        yield from comm.bcast(1 * GiB)
        yield from comm.reduce(1 * GiB)
        yield from comm.allreduce(1 * GiB)
        yield from comm.alltoall(1 * GiB)
        done.append(comm.rank)
        return None

    t0 = cluster.env.now
    job.launch(rank_main)
    cluster.env.run(until=job.wait())
    assert done == [0]
    assert cluster.env.now - t0 < 1.0  # no data actually moved


def test_unknown_proc_rank_lookup(job4):
    cluster, job = job4
    with pytest.raises(MpiError):
        job.proc(99)
