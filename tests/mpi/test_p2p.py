"""Unit tests: point-to-point messaging and matching."""

from repro.mpi.datatypes import ANY_SOURCE, ANY_TAG, Message
from repro.mpi.p2p import MatchingEngine, SendTracker
from repro.units import MiB
from tests.conftest import drive, unexpected_count


# -- MatchingEngine (pure) --------------------------------------------------------


def test_matching_by_src_and_tag(env):
    engine = MatchingEngine(env)
    engine.deliver(Message(src=1, dst=0, tag=7, nbytes=10))
    engine.deliver(Message(src=2, dst=0, tag=9, nbytes=20))

    def main(env):
        msg = yield engine.post_recv(src=2, tag=9, comm_id=0)
        return msg

    message = drive(env, main(env))
    assert message.src == 2 and message.nbytes == 20
    assert unexpected_count(engine) == 1


def test_wildcards(env):
    engine = MatchingEngine(env)
    engine.deliver(Message(src=3, dst=0, tag=5, nbytes=1))

    def main(env):
        msg = yield engine.post_recv(src=ANY_SOURCE, tag=ANY_TAG, comm_id=0)
        return msg

    assert drive(env, main(env)).src == 3


def test_comm_id_isolation(env):
    engine = MatchingEngine(env)
    engine.deliver(Message(src=0, dst=1, tag=0, nbytes=1, comm_id=5))

    def main(env):
        get = engine.post_recv(src=ANY_SOURCE, tag=ANY_TAG, comm_id=0)
        timeout = env.timeout(1.0)
        yield env.any_of([get, timeout])
        matched = get.triggered
        get.cancel()
        return matched

    assert drive(env, main(env)) is False


def test_send_tracker_drain(env):
    tracker = SendTracker(env)
    a, b = env.event(), env.event()
    steps = []

    def send(name, wire):
        steps.append((name, "start", env.now))
        yield wire
        steps.append((name, "landed", env.now))

    done_a = tracker.start(send("a", a))
    done_b = tracker.start(send("b", b))
    # Each send ran to its first yield inside start(), with no process.
    assert steps == [("a", "start", 0.0), ("b", "start", 0.0)]
    assert tracker.in_flight == 2
    done_at = []

    def waiter(env):
        yield tracker.drain()
        done_at.append(env.now)

    def completer(env):
        yield env.timeout(1.0)
        a.succeed()
        yield env.timeout(1.0)
        b.succeed()

    env.process(waiter(env))
    env.process(completer(env))
    env.run()
    assert done_at == [2.0]
    assert tracker.in_flight == 0
    assert done_a.ok and done_b.ok
    assert steps[2:] == [("a", "landed", 1.0), ("b", "landed", 2.0)]
    assert tracker.total_sends == 2


def test_drain_empty_immediate(env):
    tracker = SendTracker(env)

    def main(env):
        yield tracker.drain()
        return env.now

    assert drive(env, main(env)) == 0.0


# -- through the runtime ---------------------------------------------------------------


def test_send_recv_between_vms(ib_job):
    cluster, job = ib_job
    results = {}

    def rank_main(proc, comm):
        if comm.rank == 0:
            yield from comm.send(3, 8 * MiB, tag=1, value="hello")
        elif comm.rank == 3:
            msg = yield from comm.recv(0, tag=1)
            results["msg"] = msg
        return None

    job.launch(rank_main)
    cluster.env.run(until=job.wait())
    assert results["msg"].value == "hello"
    assert results["msg"].nbytes == 8 * MiB


def test_sm_for_colocated_openib_for_remote(ib_job):
    cluster, job = ib_job
    # Ranks 0,1 share vm1; ranks 2,3 share vm2.
    p0 = job.proc(0)
    assert p0.btl.route_name(job.proc(1)) == "sm"
    assert p0.btl.route_name(job.proc(2)) == "openib"


def test_tcp_fallback_without_ib(eth_job):
    cluster, job = eth_job
    assert job.proc(0).btl.route_name(job.proc(1)) == "tcp"
    assert job.transports_in_use() == {"tcp": 2}


def test_isend_overlaps(ib_job):
    cluster, job = ib_job
    env = cluster.env
    t = {}

    def rank_main(proc, comm):
        if comm.rank == 0:
            t0 = env.now
            e1 = comm.isend(2, 64 * MiB, tag=1)
            e2 = comm.isend(3, 64 * MiB, tag=2)
            yield env.all_of([e1, e2])
            t["send_done"] = env.now - t0
        elif comm.rank == 2:
            yield from comm.recv(0, tag=1)
        elif comm.rank == 3:
            yield from comm.recv(0, tag=2)
        return None

    job.launch(rank_main)
    env.run(until=job.wait())
    # Two concurrent 64 MiB sends to different VMs share the IB link;
    # both finish well before two serialized sends would.
    serialized = 2 * 64 * MiB / cluster.calibration.ib_link_Bps
    assert t["send_done"] < serialized * 1.5


def test_sendrecv_exchange(ib_job):
    cluster, job = ib_job
    seen = {}

    def rank_main(proc, comm):
        peer = comm.rank ^ 2  # exchange across VMs
        msg = yield from comm.sendrecv(peer, 1 * MiB, peer, tag=4, value=comm.rank)
        seen[comm.rank] = msg.value
        return None

    job.launch(rank_main)
    cluster.env.run(until=job.wait())
    assert seen == {0: 2, 1: 3, 2: 0, 3: 1}
