"""A non-blocking send that fails is never lost.

``isend`` and ``sendrecv`` drive the BTL send from event callbacks; its
completion event carries the failure, so a rank that waits on the send
sees the error, and a failure nobody waits on still stops the run.
"""

import fnmatch

import pytest

from repro.errors import BtlUnreachableError, LinkDownError
from repro.hardware.cluster import build_agc_cluster
from repro.testbed import create_job, provision_vms
from repro.units import GiB, MiB
from tests.conftest import drive

#: 256 MiB over the 3 GiB/s IB link: the flow runs for ~83 ms.
BIG = 256 * MiB
#: Rank 0 computes this long before its exchange, so rank 1's reply
#: has landed before the cable drops.
COMPUTE_S = 0.05


@pytest.fixture
def pair():
    cluster = build_agc_cluster(ib_nodes=2, eth_nodes=2)
    vms = provision_vms(cluster, ["ib01", "ib02"], memory_bytes=4 * GiB)
    job = create_job(cluster, vms, procs_per_vm=1)
    drive(cluster.env, job.init(), name="init")
    return cluster, job


def _drop_ib01_after(cluster, delay_s):
    """Take ib01's IB cable down ``delay_s`` from now (flows on it fail),
    as a chaos ``drop`` does on the Ethernet fabric."""
    env = cluster.env
    fabric = cluster.ib_fabric

    def drop():
        yield env.timeout(delay_s)
        for link in fabric.topology.links():
            if fnmatch.fnmatch(link.name, "ib01*"):
                link.fail()
                fabric.topology.invalidate_routes()
                fabric.flows.fail_flows_on(link)

    env.process(drop(), name="drop")


@pytest.mark.parametrize(
    "drop_after_s, error",
    [
        # While rank 0's queue pair is being set up: posting the send
        # fails and the RC QP enters the error state.
        (COMPUTE_S + 0.001, BtlUnreachableError),
        # Under the flow: the transfer dies mid-stream.
        (COMPUTE_S + 0.040, LinkDownError),
    ],
    ids=["before-post", "under-flow"],
)
def test_sendrecv_send_failing_mid_flight_raises_in_rank(pair, drop_after_s, error):
    cluster, job = pair
    raised = []

    def rank_main(proc, comm):
        if comm.rank == 0:
            yield proc.vm.compute(COMPUTE_S, nthreads=1)
            try:
                yield from comm.sendrecv(1, BIG, src=1, tag=3)
            except (BtlUnreachableError, LinkDownError) as err:
                raised.append(type(err))
        else:
            # The reply is already queued when rank 0 posts its receive,
            # so rank 0 ends up blocked on its own send.
            yield from comm.send(0, 8, tag=3)
        return None

    job.launch(rank_main)
    _drop_ib01_after(cluster, drop_after_s)
    cluster.env.run(until=job.wait())
    assert raised == [error]


def test_unwaited_isend_failure_stops_the_run(pair):
    cluster, job = pair

    def rank_main(proc, comm):
        if comm.rank == 0:
            comm.isend(1, BIG, tag=4)  # fire and forget
        return None
        yield  # a generator

    job.launch(rank_main)
    _drop_ib01_after(cluster, 0.040)
    with pytest.raises(LinkDownError, match="dropped mid-transfer"):
        cluster.env.run()
