"""Unit tests: IB fabric — SM, LIDs, link-up FSM, queue pairs."""

import pytest

from repro.errors import LinkDownError, NetworkError
from repro.hardware.calibration import PAPER_CALIBRATION
from repro.network.fabric import PortState
from repro.network.infiniband import InfiniBandFabric
from repro.network.topology import Topology
from repro.units import GiB


@pytest.fixture
def ib(env):
    topo = Topology("ib")
    topo.star("sw", ["a", "b", "c"], capacity_Bps=PAPER_CALIBRATION.ib_link_Bps)
    fabric = InfiniBandFabric(env, "ib", PAPER_CALIBRATION, topology=topo)
    for name in ("a", "b", "c"):
        fabric.create_port(name)
    return fabric


def test_plug_takes_linkup_time(env, ib):
    port = ib.port("a")
    active = ib.plug(port)
    assert port.state is PortState.POLLING
    env.run()
    assert port.state is PortState.ACTIVE
    assert env.now == pytest.approx(PAPER_CALIBRATION.ib_linkup_s)


def test_lid_assigned_on_activation(env, ib):
    a, b = ib.port("a"), ib.port("b")
    ib.plug(a)
    ib.plug(b)
    env.run()
    assert a.address != b.address
    assert a.address is not None


def test_replug_gets_fresh_lid(env, ib):
    """LIDs change across detach/attach — the Nomad contrast."""
    port = ib.port("a")
    ib.plug(port)
    env.run()
    first_lid = port.address
    ib.unplug(port)
    assert port.state is PortState.DOWN
    ib.plug(port)
    env.run()
    assert port.address != first_lid


def test_unplug_during_polling_cancels_activation(env, ib):
    port = ib.port("a")
    ib.plug(port)
    env.run(until=5.0)
    ib.unplug(port)
    env.run()
    assert port.state is PortState.DOWN
    assert port.address is None


def test_double_plug_rejected(env, ib):
    port = ib.port("a")
    ib.plug(port)
    with pytest.raises(NetworkError):
        ib.plug(port)
    env.run()


def test_qp_requires_active_ports(env, ib):
    a, b = ib.port("a"), ib.port("b")
    with pytest.raises(LinkDownError):
        ib.create_qp(a, b)
    ib.force_active(a)
    ib.force_active(b)
    qp = ib.create_qp(a, b)
    assert qp.alive


def test_qp_dies_on_unplug(env, ib):
    a, b = ib.port("a"), ib.port("b")
    ib.force_active(a)
    ib.force_active(b)
    qp = ib.create_qp(a, b)
    ib.unplug(b)
    assert not qp.alive
    with pytest.raises(LinkDownError):
        qp.post_send(100)


def test_qp_detects_stale_lids(env, ib):
    a, b = ib.port("a"), ib.port("b")
    ib.force_active(a)
    ib.force_active(b)
    qp = ib.create_qp(a, b)
    # Simulate a re-attach epoch: port b re-activates with a new LID.
    ib.unplug(b)
    ib.force_active(b)
    with pytest.raises(LinkDownError):
        qp.post_send(100)
    assert not qp.alive


def test_qp_transfer_bandwidth(env, ib):
    a, b = ib.port("a"), ib.port("b")
    ib.force_active(a)
    ib.force_active(b)
    qp = ib.create_qp(a, b)
    flow = qp.post_send(3 * GiB)
    env.run()
    assert flow.finished_at == pytest.approx(1.0, rel=0.01)


def test_linkup_jitter_reproducible():
    from repro.hardware.cluster import build_agc_cluster

    times = []
    for _ in range(2):
        cluster = build_agc_cluster(ib_nodes=1, eth_nodes=0, seed=42, linkup_jitter=0.05)
        env = cluster.env
        port = cluster.ib_fabric.port("ib01")
        cluster.ib_fabric.plug(port)
        env.run()
        times.append(env.now)
    assert times[0] == pytest.approx(times[1])
    assert times[0] != pytest.approx(PAPER_CALIBRATION.ib_linkup_s)
