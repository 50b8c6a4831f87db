"""Unit tests: large-message collective algorithms (chain, ring, scatter)."""

import pytest

from repro.hardware.cluster import build_agc_cluster
from repro.testbed import create_job, provision_vms
from repro.units import GiB, MiB
from tests.conftest import drive


def _job(nvms=4, ppv=1):
    cluster = build_agc_cluster(ib_nodes=nvms, eth_nodes=0)
    hosts = [f"ib{i + 1:02d}" for i in range(nvms)]
    vms = provision_vms(cluster, hosts, memory_bytes=4 * GiB)
    job = create_job(cluster, vms, procs_per_vm=ppv)
    drive(cluster.env, job.init(), name="init")
    return cluster, job


def _timed(cluster, job, op):
    """Run op(proc, comm) on all ranks; return max per-rank elapsed."""
    elapsed = {}

    def rank_main(proc, comm):
        t0 = cluster.env.now
        yield from op(proc, comm)
        elapsed[comm.rank] = cluster.env.now - t0
        return None

    job.launch(rank_main)
    cluster.env.run(until=job.wait())
    return max(elapsed.values())


def test_chain_bcast_delivers_value():
    cluster, job = _job(nvms=4)
    got = {}

    def rank_main(proc, comm):
        value = yield from comm.bcast(
            64 * MiB, root=1, value="v" if comm.rank == 1 else None, algorithm="chain"
        )
        got[comm.rank] = value
        return None

    job.launch(rank_main)
    cluster.env.run(until=job.wait())
    assert got == {r: "v" for r in range(4)}


def test_chain_beats_binomial_for_large_messages():
    """Pipelined chain ≈ nbytes/bw; binomial pays log₂P · nbytes/bw."""
    nbytes = 1 * GiB
    times = {}
    for algorithm in ("binomial", "chain"):
        cluster, job = _job(nvms=4)

        def op(proc, comm, algorithm=algorithm):
            yield from comm.bcast(nbytes, root=0, algorithm=algorithm)

        times[algorithm] = _timed(cluster, job, op)
    assert times["chain"] < times["binomial"] * 0.75
    # Chain approaches the serial-transfer lower bound.
    bw = build_agc_cluster(ib_nodes=1).calibration.ib_link_Bps
    assert times["chain"] == pytest.approx(nbytes / bw, rel=0.25)


def test_ring_allreduce_correct_and_bandwidth_optimal():
    nbytes = 512 * MiB
    times = {}
    for algorithm in ("basic", "ring"):
        cluster, job = _job(nvms=4)

        def op(proc, comm, algorithm=algorithm):
            yield from comm.allreduce(nbytes, algorithm=algorithm)

        times[algorithm] = _timed(cluster, job, op)
    # Ring moves 2(P-1)/P·nbytes per rank vs ~2·log₂P·nbytes for
    # reduce+bcast: clearly faster at P=4.
    assert times["ring"] < times["basic"]


def test_unknown_algorithms_rejected():
    cluster, job = _job(nvms=2)

    def bad_bcast(proc, comm):
        yield from comm.bcast(1024, algorithm="telepathy")

    job.launch(bad_bcast)
    with pytest.raises(ValueError):
        cluster.env.run(until=job.wait())


def test_chain_bcast_single_rank_noop():
    cluster, job = _job(nvms=1)

    def rank_main(proc, comm):
        value = yield from comm.bcast(1 * GiB, value="x", algorithm="chain")
        return value

    job.launch(rank_main)
    cluster.env.run(until=job.wait())
