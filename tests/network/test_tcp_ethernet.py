"""Unit tests: Ethernet fabric and the CPU-coupled TCP model."""

import pytest

from repro.errors import NetworkError
from repro.hardware.calibration import PAPER_CALIBRATION
from repro.hardware.cpu import HostCpu
from repro.network.ethernet import EthernetFabric
from repro.network.fabric import PortState
from repro.network.tcp import TcpConnection, TcpEndpoint
from repro.network.topology import Topology
from repro.units import gbps
from tests.conftest import drive


@pytest.fixture
def eth(env):
    topo = Topology("eth")
    topo.star("sw", ["a", "b"], capacity_Bps=gbps(10), latency_s=2e-6)
    fabric = EthernetFabric(env, "eth", PAPER_CALIBRATION, topology=topo)
    for name in ("a", "b"):
        port = fabric.create_port(name)
        fabric.force_active(port)
    return fabric


def test_eth_plug_fast(env):
    topo = Topology("eth")
    topo.star("sw", ["x"], capacity_Bps=gbps(10))
    fabric = EthernetFabric(env, "eth", PAPER_CALIBRATION, topology=topo)
    port = fabric.create_port("x")
    fabric.plug(port)
    env.run()
    assert port.state is PortState.ACTIVE
    assert env.now <= 0.01  # Table II: Ethernet link-up ≈ 0


def test_transfer_requires_active(env, eth):
    down = eth.port("a")
    eth.unplug(down)
    with pytest.raises(Exception):
        eth.transfer(down, eth.port("b"), 100)


def _connect(env, eth, cpu_a=None, cpu_b=None, cap=float("inf")):
    a = TcpEndpoint(port=eth.port("a"), cpu=cpu_a, stream_cap_Bps=cap)
    b = TcpEndpoint(port=eth.port("b"), cpu=cpu_b, stream_cap_Bps=cap)

    def go(env):
        conn = yield from TcpConnection.connect(env, a, b, PAPER_CALIBRATION)
        return conn

    return drive(env, go(env))


def test_connect_then_send(env, eth):
    conn = _connect(env, eth)
    t0 = env.now

    def sender(env):
        yield conn.send(1.25e9)  # 1.25 GB at 10 Gbps line rate

    drive(env, sender(env))
    assert env.now - t0 == pytest.approx(1.0, rel=0.01)
    assert conn.bytes_sent == pytest.approx(1.25e9)


def test_stream_cap_limits_rate(env, eth):
    conn = _connect(env, eth, cap=gbps(2.0))
    t0 = env.now

    def sender(env):
        yield conn.send(1e9)

    drive(env, sender(env))
    assert env.now - t0 == pytest.approx(4.0, rel=0.01)


def test_cpu_coupling_binds_when_slow(env, eth):
    """A starved CPU throttles the transfer below the stream rate."""
    cpu = HostCpu(env, cores=8)
    # Saturate the CPU with 16 long-running threads.
    for _ in range(16):
        cpu.run_thread(1e6)
    cal = PAPER_CALIBRATION
    conn = _connect(env, eth, cpu_a=cpu, cpu_b=None, cap=gbps(10))
    nbytes = 1e9
    t0 = env.now

    def sender(env):
        yield conn.send(nbytes)

    drive(env, sender(env))
    elapsed = env.now - t0
    uncontended_cpu_time = nbytes / cal.tcp_cpu_Bps_per_core / cal.tcp_cpu_max_cores
    assert elapsed > uncontended_cpu_time * 1.5  # contention visible


def test_send_on_unestablished_rejected(env, eth):
    a = TcpEndpoint(port=eth.port("a"))
    b = TcpEndpoint(port=eth.port("b"))
    conn = TcpConnection(env, a, b, PAPER_CALIBRATION)
    with pytest.raises(NetworkError):
        conn.send(100)


def test_cross_fabric_endpoints_rejected(env, eth):
    topo2 = Topology("other")
    topo2.star("sw2", ["z"], capacity_Bps=gbps(10))
    other = EthernetFabric(env, "other", PAPER_CALIBRATION, topology=topo2)
    z = other.create_port("z")
    other.force_active(z)
    with pytest.raises(NetworkError):
        TcpConnection(
            env,
            TcpEndpoint(port=eth.port("a")),
            TcpEndpoint(port=z),
            PAPER_CALIBRATION,
        )


def test_close_prevents_send(env, eth):
    conn = _connect(env, eth)
    conn.close()
    with pytest.raises(NetworkError):
        conn.send(1)
