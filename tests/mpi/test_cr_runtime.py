"""Unit tests: CRCP quiesce, OPAL CRS SELF callbacks, CR servicing."""

import pytest

from repro.errors import CheckpointError, MpiError
from repro.hardware.cluster import build_agc_cluster
from repro.mpi.crs import CrsCallbacks
from repro.mpi.datatypes import Message
from repro.mpi.ft import FtSettings
from repro.mpi.runtime import MpiJob
from repro.testbed import create_job, provision_vms
from repro.units import GiB, MiB
from tests.conftest import drive, unexpected_count


@pytest.fixture
def pair():
    cluster = build_agc_cluster(ib_nodes=2, eth_nodes=2)
    vms = provision_vms(cluster, ["ib01", "ib02"], memory_bytes=4 * GiB)
    job = create_job(cluster, vms, procs_per_vm=1)
    drive(cluster.env, job.init(), name="init")
    return cluster, job


def test_ft_paper_settings():
    ft = FtSettings.paper_settings()
    assert ft.ft_enable_cr
    assert ft.continue_like_restart
    assert not ft.leave_pinned


def test_crs_requires_callbacks():
    cluster = build_agc_cluster(ib_nodes=1, eth_nodes=0)
    vms = provision_vms(cluster, ["ib01"], memory_bytes=4 * GiB)
    job = MpiJob(cluster, vms, procs_per_vm=1)  # no SymVirt installed

    def main(env):
        yield from job.crs.checkpoint(job.proc(0))

    proc = cluster.env.process(main(cluster.env))
    with pytest.raises(CheckpointError, match="libsymvirt"):
        cluster.env.run(until=proc)


def test_checkpoint_on_finished_job_rejected(pair):
    cluster, job = pair

    def rank_main(proc, comm):
        yield from comm.barrier()
        return None

    job.launch(rank_main)
    cluster.env.run(until=job.wait())
    with pytest.raises(MpiError, match="cannot checkpoint"):
        job.request_checkpoint()


def test_checkpoint_before_launch_rejected(pair):
    cluster, job = pair
    with pytest.raises(MpiError):
        job.request_checkpoint()


def test_quiesce_drains_outstanding_sends(pair):
    cluster, job = pair
    env = cluster.env
    order = []

    def rank_main(proc, comm):
        if comm.rank == 0:
            done = comm.isend(1, 256 * MiB, tag=1)
            yield from job.crcp.quiesce(proc)
            order.append(("quiesced", done.triggered))
        else:
            yield from comm.recv(0, tag=1)
        return None

    job.launch(rank_main)
    env.run(until=job.wait())
    assert order == [("quiesced", True)]


def test_quiesce_drains_the_send_of_a_sendrecv_parked_in_its_receive(pair):
    """The request wakes a rank parked in ``sendrecv``'s receive while
    its own send is on the wire; quiesce waits for that send to land."""
    cluster, job = pair
    env = cluster.env
    checkpoints = []

    def checkpoint_cb(proc):
        checkpoints.append(
            (proc.rank, proc.sends.in_flight, job.proc(1 - proc.rank).matching.delivered)
        )
        yield env.timeout(0)

    job.crs.register_callbacks(CrsCallbacks(checkpoint=checkpoint_cb))

    def rank_main(proc, comm):
        if comm.rank == 0:
            # 256 MiB: ~83 ms on the wire, well past the request.
            yield from comm.sendrecv(1, 256 * MiB, src=1, tag=1)
        else:
            yield proc.vm.compute(1.0, nthreads=1)
            yield from comm.sendrecv(0, 8, src=0, tag=1)
        return None

    job.launch(rank_main)

    def trigger(env):
        yield env.timeout(0.02)
        job.request_checkpoint()

    env.process(trigger(env))
    env.run(until=job.wait())
    # Rank 0 checkpointed with nothing in flight and its message already
    # delivered to rank 1, which was still computing.
    assert checkpoints[0] == (0, 0, 1)
    assert [rank for rank, _, _ in checkpoints] == [0, 1]


def test_cr_serviced_at_mpi_call(pair):
    """A rank in a long compute phase services the CR at its next call."""
    cluster, job = pair
    env = cluster.env
    serviced = []

    # Replace the SymVirt callbacks with instrumented no-op ones.
    def checkpoint_cb(proc):
        serviced.append((proc.rank, env.now))
        yield env.timeout(0)

    job.crs.register_callbacks(CrsCallbacks(checkpoint=checkpoint_cb))

    def rank_main(proc, comm):
        yield proc.vm.compute(5.0, nthreads=1)
        yield from comm.barrier()  # CR serviced here
        return None

    job.launch(rank_main)

    def trigger(env):
        yield env.timeout(1.0)
        job.request_checkpoint()

    env.process(trigger(env))
    env.run(until=job.wait())
    assert len(serviced) == 2
    assert all(t >= 5.0 for _, t in serviced)


def test_cr_interrupts_blocked_recv(pair):
    """A rank parked in MPI_Recv still checkpoints (progress engine)."""
    cluster, job = pair
    env = cluster.env
    events = []

    def checkpoint_cb(proc):
        events.append(("cr", proc.rank, round(env.now, 3)))
        yield env.timeout(0)

    job.crs.register_callbacks(CrsCallbacks(checkpoint=checkpoint_cb))

    def rank_main(proc, comm):
        if comm.rank == 0:
            msg = yield from comm.recv(1, tag=9)  # blocks for a long time
            events.append(("recv", msg.src, msg.nbytes))
        else:
            yield proc.vm.compute(10.0, nthreads=1)
            yield from proc.maybe_service_cr()
            yield from comm.send(0, 1024, tag=9)
        return None

    job.launch(rank_main)

    def trigger(env):
        yield env.timeout(1.0)
        job.request_checkpoint()

    env.process(trigger(env))
    env.run(until=job.wait())
    cr_ranks = sorted(r for kind, r, *_ in [e for e in events if e[0] == "cr"])
    assert cr_ranks == [0, 1]
    assert ("recv", 1, 1024) in events


def test_cr_round_serviced_once_per_rank(pair):
    cluster, job = pair
    env = cluster.env
    count = {"cr": 0}

    def checkpoint_cb(proc):
        count["cr"] += 1
        yield env.timeout(0)

    job.crs.register_callbacks(CrsCallbacks(checkpoint=checkpoint_cb))

    def rank_main(proc, comm):
        yield proc.vm.compute(1.0, nthreads=1)
        # Several MPI calls in a row — the CR must fire exactly once.
        yield from comm.barrier()
        yield from comm.barrier()
        yield from comm.barrier()
        return None

    job.launch(rank_main)

    def trigger(env):
        yield env.timeout(0.5)
        job.request_checkpoint()

    env.process(trigger(env))
    env.run(until=job.wait())
    assert count["cr"] == 2  # one per rank


def test_continue_like_restart_forces_reconstruct(pair):
    cluster, job = pair
    env = cluster.env
    assert job.ft.continue_like_restart
    # No-op callbacks: this test exercises the reconstruct decision, not
    # the SymVirt park (which needs a controller to signal).
    def checkpoint_cb(proc):
        yield env.timeout(0)

    job.crs.register_callbacks(CrsCallbacks(checkpoint=checkpoint_cb))
    gen_before = [p.btl.generations for p in job.procs]

    def rank_main(proc, comm):
        yield proc.vm.compute(1.0, nthreads=1)
        yield from comm.barrier()
        return None

    job.launch(rank_main)

    def trigger(env):
        yield env.timeout(0.5)
        job.request_checkpoint()

    env.process(trigger(env))
    env.run(until=job.wait())
    assert [p.btl.generations for p in job.procs] == [g + 1 for g in gen_before]


def _held_entries(proc):
    """Entries in the rank's own containers (where CR bookkeeping lives)."""
    return sum(len(v) for v in vars(proc).values() if isinstance(v, (list, set, dict)))


def test_blocking_receives_leave_constant_cr_state(pair):
    """Receives without a checkpoint leave nothing behind per call."""
    cluster, job = pair
    held_before = [_held_entries(p) for p in job.procs]

    def rank_main(proc, comm):
        for i in range(200):
            if comm.rank == i % 2:
                yield from comm.send(1 - comm.rank, 64, tag=i)
            else:
                yield from comm.recv(1 - comm.rank, tag=i)
        return None

    job.launch(rank_main)
    cluster.env.run(until=job.wait())
    assert [_held_entries(p) for p in job.procs] == held_before
    for proc in job.procs:
        assert proc.sends.in_flight == 0
        # No stale posted receive is left to swallow a later message.
        assert unexpected_count(proc.matching) == 0
        proc.deliver(Message(src=1 - proc.rank, dst=proc.rank, tag=0, nbytes=1))
        assert unexpected_count(proc.matching) == 1


def test_parked_recv_checkpoints_then_takes_message_sent_meanwhile(pair):
    """The request wakes a parked receive at once; a message that lands
    during the checkpoint waits unmatched until the receive is re-posted."""
    cluster, job = pair
    env = cluster.env
    seen = {}

    def checkpoint_cb(proc):
        seen.setdefault("cr", {})[proc.rank] = env.now
        yield env.timeout(2.0)

    job.crs.register_callbacks(CrsCallbacks(checkpoint=checkpoint_cb))

    def rank_main(proc, comm):
        if comm.rank == 0:
            msg = yield from comm.recv(1, tag=9)
            seen["recv"] = (msg.src, msg.nbytes, env.now)
        else:
            yield proc.vm.compute(1.5, nthreads=1)
            yield comm.isend(0, 1024, tag=9)
            seen["pending_mid_cr"] = unexpected_count(job.proc(0).matching)
            yield from proc.maybe_service_cr()
        return None

    t0 = env.now  # after MPI_Init
    job.launch(rank_main)

    def trigger(env):
        yield env.timeout(1.0)
        job.request_checkpoint()

    env.process(trigger(env))
    env.run(until=job.wait())
    assert seen["cr"][0] < t0 + 1.5
    assert seen["pending_mid_cr"] == 1
    src, nbytes, at = seen["recv"]
    assert (src, nbytes) == (1, 1024) and at >= seen["cr"][0] + 2.0
    assert unexpected_count(job.proc(0).matching) == 0


def test_rank_terminated_mid_blocking_send_exits_cleanly(pair):
    cluster, job = pair
    env = cluster.env

    def rank_main(proc, comm):
        if comm.rank == 0:
            yield from comm.send(1, 8 * GiB, tag=1)
        else:
            yield from comm.recv(0, tag=1)
        return None

    ranks = job.launch(rank_main)

    def killer(env):
        yield env.timeout(0.5)
        assert all(p.is_alive for p in ranks)
        job.terminate("host died")

    env.process(killer(env))
    env.run(until=job.wait())
    assert [(p.ok, p.value) for p in ranks] == [(True, None), (True, None)]
    # The abandoned transfer drains without surfacing a failure.
    env.run(until=env.now + 60.0)
