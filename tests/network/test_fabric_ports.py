"""Unit tests: fabric port lifecycle and transfer guards."""

import pytest

from repro.errors import LinkDownError, NetworkError
from repro.hardware.calibration import PAPER_CALIBRATION
from repro.network.ethernet import EthernetFabric
from repro.network.fabric import PortState
from repro.network.infiniband import InfiniBandFabric
from repro.network.myrinet import MyrinetFabric
from repro.network.topology import Topology
from repro.sim.core import Environment
from repro.units import gbps


def _fabric(env, cls, name):
    topo = Topology(name)
    topo.star("sw", ["a", "b"], capacity_Bps=gbps(10))
    return cls(env, name, PAPER_CALIBRATION, topology=topo)


@pytest.mark.parametrize("cls", [InfiniBandFabric, EthernetFabric, MyrinetFabric])
def test_port_creation_guards(env, cls):
    fabric = _fabric(env, cls, cls.kind)
    port = fabric.create_port("a")
    with pytest.raises(NetworkError):
        fabric.create_port("a")  # duplicate
    with pytest.raises(NetworkError):
        fabric.create_port("ghost")  # not in topology
    assert fabric.port("a") is port
    with pytest.raises(NetworkError):
        fabric.port("ghost")


@pytest.mark.parametrize(
    "cls,expected_linkup",
    [
        (InfiniBandFabric, PAPER_CALIBRATION.ib_linkup_s),
        (EthernetFabric, PAPER_CALIBRATION.eth_linkup_s),
        (MyrinetFabric, PAPER_CALIBRATION.myrinet_linkup_s),
    ],
)
def test_linkup_time_per_fabric(env, cls, expected_linkup):
    fabric = _fabric(env, cls, cls.kind)
    port = fabric.create_port("a")
    fabric.plug(port)
    env.run()
    assert port.state is PortState.ACTIVE
    assert env.now == pytest.approx(expected_linkup, abs=0.01)


@pytest.mark.parametrize("cls", [InfiniBandFabric, EthernetFabric, MyrinetFabric])
def test_transfer_requires_both_ports_active(env, cls):
    fabric = _fabric(env, cls, cls.kind)
    a = fabric.create_port("a")
    b = fabric.create_port("b")
    fabric.force_active(a)
    with pytest.raises(LinkDownError):
        fabric.transfer(a, b, 100)
    fabric.force_active(b)
    flow = fabric.transfer(a, b, 100)
    env.run()
    assert flow.finished


@pytest.mark.parametrize("cls", [InfiniBandFabric, EthernetFabric, MyrinetFabric])
def test_addresses_unique_per_activation(env, cls):
    fabric = _fabric(env, cls, cls.kind)
    a = fabric.create_port("a")
    b = fabric.create_port("b")
    fabric.force_active(a)
    fabric.force_active(b)
    assert a.address != b.address


def test_wait_active_fires_immediately_when_active(env):
    fabric = _fabric(env, EthernetFabric, "eth")
    port = fabric.create_port("a")
    fabric.force_active(port)
    event = port.wait_active()
    assert event.triggered


def test_myrinet_endpoint_guards(env):
    fabric = _fabric(env, MyrinetFabric, "myrinet")
    a = fabric.create_port("a")
    b = fabric.create_port("b")
    with pytest.raises(LinkDownError):
        fabric.open_endpoint(a, b)
    fabric.force_active(a)
    fabric.force_active(b)
    endpoint = fabric.open_endpoint(a, b)
    endpoint.close()
    with pytest.raises(LinkDownError):
        endpoint.send(100)


def test_latency_between_ports(env):
    topo = Topology("t")
    topo.star("sw", ["a", "b"], capacity_Bps=gbps(10), latency_s=1e-6)
    fabric = EthernetFabric(env, "eth", PAPER_CALIBRATION, topology=topo)
    a, b = fabric.create_port("a"), fabric.create_port("b")
    assert fabric.latency(a, b) == pytest.approx(2e-6)
