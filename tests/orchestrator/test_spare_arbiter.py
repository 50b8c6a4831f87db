"""Spare-host arbitration between concurrent incidents: atomic
all-or-nothing leases, blast-radius ordering, re-entrancy, no deadlock,
no double-reservation."""

from __future__ import annotations

from repro.hardware.cluster import Cluster
from repro.invariants import check
from repro.orchestrator.state import SpareArbiter


def _cluster():
    cluster = Cluster()
    for name in ("sp01", "sp02", "sp03"):
        cluster.add_node(name)
    return cluster


def _run_acquire(cluster, arbiter, incident_id, hosts, blast_radius=0, out=None):
    """Spawn an acquire as a process; append granted hosts to ``out``."""

    def _go():
        granted = yield from arbiter.acquire(
            incident_id, hosts, blast_radius=blast_radius
        )
        if out is not None:
            out.append((cluster.env.now, incident_id, granted))

    return cluster.env.process(_go(), name=f"acquire.{incident_id}")


class TestLeases:
    def test_free_hosts_grant_immediately(self):
        cluster = _cluster()
        arbiter = SpareArbiter(cluster)
        out = []
        _run_acquire(cluster, arbiter, 1, ["sp01", "sp02"], out=out)
        cluster.env.run(until=1.0)
        assert out == [(0.0, 1, ["sp01", "sp02"])]
        assert arbiter.held_by(1) == ["sp01", "sp02"]
        assert arbiter.holder("sp01") == 1

    def test_release_frees_and_wakes_waiters(self):
        cluster = _cluster()
        arbiter = SpareArbiter(cluster)
        out = []
        _run_acquire(cluster, arbiter, 1, ["sp01", "sp02"], out=out)
        _run_acquire(cluster, arbiter, 2, ["sp02", "sp03"], out=out)
        cluster.env.run(until=1.0)
        # Incident 2 overlaps on sp02: it must hold nothing while waiting.
        assert [o[1] for o in out] == [1]
        assert arbiter.held_by(2) == []
        arbiter.release(1)
        cluster.env.run(until=2.0)
        assert [o[1] for o in out] == [1, 2]
        assert arbiter.held_by(2) == ["sp02", "sp03"]
        assert check(cluster, arbiter=arbiter) == []

    def test_reacquire_same_incident_is_free(self):
        cluster = _cluster()
        arbiter = SpareArbiter(cluster)
        out = []
        _run_acquire(cluster, arbiter, 1, ["sp01"], out=out)
        _run_acquire(cluster, arbiter, 1, ["sp01", "sp02"], out=out)
        cluster.env.run(until=1.0)
        assert len(out) == 2  # both grants landed without a release
        assert arbiter.held_by(1) == ["sp01", "sp02"]

    def test_release_unknown_incident_is_noop(self):
        cluster = _cluster()
        arbiter = SpareArbiter(cluster)
        assert arbiter.release(99) == []


class TestOrdering:
    def test_bigger_blast_radius_granted_first(self):
        cluster = _cluster()
        arbiter = SpareArbiter(cluster)
        out = []
        _run_acquire(cluster, arbiter, 1, ["sp01"], out=out)
        cluster.env.run(until=1.0)
        # Two waiters for the same host: the small one arrives first,
        # the big one must still win the release.
        _run_acquire(cluster, arbiter, 2, ["sp01"], blast_radius=1, out=out)
        _run_acquire(cluster, arbiter, 3, ["sp01"], blast_radius=5, out=out)
        cluster.env.run(until=2.0)
        arbiter.release(1)
        cluster.env.run(until=3.0)
        assert [o[1] for o in out] == [1, 3]
        arbiter.release(3)
        cluster.env.run(until=4.0)
        assert [o[1] for o in out] == [1, 3, 2]
        assert check(cluster, arbiter=arbiter) == []

    def test_fifo_within_equal_radius(self):
        cluster = _cluster()
        arbiter = SpareArbiter(cluster)
        out = []
        _run_acquire(cluster, arbiter, 1, ["sp01"], out=out)
        cluster.env.run(until=1.0)
        _run_acquire(cluster, arbiter, 2, ["sp01"], blast_radius=3, out=out)
        _run_acquire(cluster, arbiter, 3, ["sp01"], blast_radius=3, out=out)
        arbiter.release(1)
        cluster.env.run(until=2.0)
        assert [o[1] for o in out] == [1, 2]

    def test_disjoint_claim_not_blocked_behind_big_waiter(self):
        cluster = _cluster()
        arbiter = SpareArbiter(cluster)
        out = []
        _run_acquire(cluster, arbiter, 1, ["sp01"], out=out)
        cluster.env.run(until=1.0)
        # Incident 2 (huge) waits on sp01; incident 3 wants only sp03,
        # which nobody holds — it must not queue behind 2.
        _run_acquire(cluster, arbiter, 2, ["sp01"], blast_radius=100, out=out)
        _run_acquire(cluster, arbiter, 3, ["sp03"], blast_radius=1, out=out)
        cluster.env.run(until=2.0)
        assert (2.0 > out[-1][0]) and out[-1][1] == 3


class TestNoDeadlockNoDoubleLease:
    def test_opposite_order_requests_never_deadlock(self):
        cluster = _cluster()
        arbiter = SpareArbiter(cluster)
        out = []

        def _cycle(incident_id, hosts):
            granted = yield from arbiter.acquire(incident_id, hosts)
            yield cluster.env.timeout(1.0)  # hold for a while
            arbiter.release(incident_id)
            out.append((cluster.env.now, incident_id, granted))

        # Classic deadlock shape under hold-and-wait: 1 wants [a, b],
        # 2 wants [b, a].  All-or-nothing acquisition means one gets
        # both and the other waits — both always finish.
        cluster.env.process(_cycle(1, ["sp01", "sp02"]), name="c1")
        cluster.env.process(_cycle(2, ["sp02", "sp01"]), name="c2")
        cluster.env.run(until=10.0)
        assert sorted(o[1] for o in out) == [1, 2]
        assert arbiter.leases == {}
        assert check(cluster, arbiter=arbiter) == []

    def test_no_host_ever_leased_to_two_incidents(self):
        cluster = _cluster()
        arbiter = SpareArbiter(cluster)

        def _churn(incident_id, hosts, hold_s):
            for _ in range(5):
                yield from arbiter.acquire(incident_id, hosts)
                yield cluster.env.timeout(hold_s)
                arbiter.release(incident_id)
                yield cluster.env.timeout(0.1)

        cluster.env.process(_churn(1, ["sp01", "sp02"], 0.7), name="c1")
        cluster.env.process(_churn(2, ["sp02", "sp03"], 0.5), name="c2")
        cluster.env.process(_churn(3, ["sp03", "sp01"], 0.3), name="c3")
        cluster.env.run(until=60.0)
        assert check(cluster, arbiter=arbiter) == []
