"""Unit tests: the two-site (WAN) cluster topology."""

import pytest

from repro.errors import HardwareError
from repro.hardware.cluster import Cluster, build_two_site_cluster
from repro.units import gbps


def test_two_site_shape():
    cluster = build_two_site_cluster(primary_nodes=2, backup_nodes=3)
    assert len(cluster.ib_nodes()) == 2
    assert len(cluster.eth_only_nodes()) == 3
    # Cross-site route crosses the WAN link.
    path = cluster.eth_fabric.topology.path("ib01", "eth01")
    assert any(d.link.name.startswith("wan:") for d in path)
    # Intra-site routes do not.
    local = cluster.eth_fabric.topology.path("ib01", "ib02")
    assert not any(d.link.name.startswith("wan:") for d in local)


def test_wan_is_the_cross_site_bottleneck():
    cluster = build_two_site_cluster(
        primary_nodes=1, backup_nodes=1, wan_bandwidth_Bps=gbps(1.0)
    )
    env = cluster.env
    fabric = cluster.eth_fabric
    flow = fabric.transfer(fabric.port("ib01"), fabric.port("eth01"), 125e6)
    env.run()
    # 125 MB at 1 Gbps = 1 s (the 10 GbE access links are not limiting).
    assert flow.finished_at == pytest.approx(1.0, rel=0.02)


def test_wan_latency_counted():
    cluster = build_two_site_cluster(
        primary_nodes=1, backup_nodes=1, wan_latency_s=5e-3
    )
    latency = cluster.eth_fabric.topology.path_latency("ib01", "eth01")
    assert latency >= 5e-3


def test_sites_must_partition_nodes():
    cluster = Cluster()
    cluster.add_node("a")
    cluster.add_node("b")
    with pytest.raises(HardwareError, match="partition"):
        cluster.wire_ethernet(sites={"x": ["a"]}, wan_bandwidth_Bps=gbps(1))


def test_multi_site_needs_bandwidth():
    cluster = Cluster()
    cluster.add_node("a")
    with pytest.raises(HardwareError, match="bandwidth"):
        cluster.wire_ethernet(sites={"x": ["a"]})


def test_concurrent_cross_site_flows_share_wan():
    cluster = build_two_site_cluster(
        primary_nodes=2, backup_nodes=2, wan_bandwidth_Bps=gbps(1.0)
    )
    env = cluster.env
    fabric = cluster.eth_fabric
    a = fabric.transfer(fabric.port("ib01"), fabric.port("eth01"), 125e6)
    b = fabric.transfer(fabric.port("ib02"), fabric.port("eth02"), 125e6)
    env.run()
    # Two flows share the 1 Gbps pipe: each takes ~2 s.
    assert a.finished_at == pytest.approx(2.0, rel=0.02)
    assert b.finished_at == pytest.approx(2.0, rel=0.02)
