"""Fat-tree construction and deterministic ECMP routing."""

import pytest

from repro.errors import NetworkError
from repro.network.fattree import FatTree


def test_host_and_switch_counts():
    tree = FatTree(4)
    assert tree.n_hosts == 16  # k^3/4
    # k^2/4 core + k pods x (k/2 edge + k/2 agg) = 4 + 16 switches.
    assert len(tree.topology.endpoints("switch")) == 20
    assert len(tree.links()) == 16 + 16 + 16  # host-edge, edge-agg, agg-core


def test_odd_or_tiny_arity_rejected():
    with pytest.raises(NetworkError):
        FatTree(3)
    with pytest.raises(NetworkError):
        FatTree(0)


def test_route_shapes_by_locality():
    tree = FatTree(4)
    same_rack = tree.path("h00-00-00", "h00-00-01")
    same_pod = tree.path("h00-00-00", "h00-01-00")
    cross_pod = tree.path("h00-00-00", "h03-01-01")
    assert len(same_rack) == 2   # host-edge-host
    assert len(same_pod) == 4    # via one aggregation switch
    assert len(cross_pod) == 6   # via core
    assert tree.path("h00-00-00", "h00-00-00") == []


def test_ecmp_choice_is_deterministic_and_cached():
    a = FatTree(8)
    b = FatTree(8)
    src, dst = a.hosts[0], a.hosts[-1]
    names_a = [d.link.name for d in a.path(src, dst)]
    names_b = [d.link.name for d in b.path(src, dst)]
    assert names_a == names_b  # crc32 pinning, not process-seeded hash
    assert a.path(src, dst) is a.path(src, dst)  # cached per ordered pair


def test_ecmp_spreads_across_core():
    tree = FatTree(8)
    cores = {
        dlink.link.name
        for src in tree.hosts[:16]
        for dst in tree.hosts[-16:]
        for dlink in tree.path(src, dst)
        if dlink.link.name.startswith(("a", "c")) and "c" in dlink.link.name
    }
    # Many (src, dst) pairs must not all pin the same core link.
    assert len(cores) > 4


def test_rack_helpers():
    tree = FatTree(4)
    assert tree.rack_of("h02-01-00") == (2, 1)
    rack = tree.rack_hosts("h02-01-00")
    assert rack == ["h02-01-00", "h02-01-01"]
    with pytest.raises(NetworkError):
        tree.rack_of("nope")


def test_unknown_host_route_raises():
    tree = FatTree(4)
    with pytest.raises(NetworkError):
        tree.path("h00-00-00", "ghost")


def test_down_link_on_pinned_route_raises():
    tree = FatTree(4)
    src, dst = "h00-00-00", "h01-00-00"
    route = tree.path(src, dst)
    route[0].link.fail()
    with pytest.raises(NetworkError):
        tree.path(src, dst)
    route[0].link.restore()
    assert tree.path(src, dst) == route


def test_direction_convention_matches_topology_router():
    """FatTree ECMP and Topology.path return the same interned
    DirectedLink objects for a shared link, so flows from either router
    contend correctly."""
    tree = FatTree(4)
    for src, dst in (("h00-00-00", "h00-00-01"), ("h00-00-01", "h00-00-00")):
        ecmp = tree.path(src, dst)
        nx_route = tree.topology.path(src, dst)
        assert len(ecmp) == len(nx_route) == 2
        assert all(a is b for a, b in zip(ecmp, nx_route))


def test_oversubscribed_fabric_capacity():
    tree = FatTree(4, host_Bps=10e9 / 8, fabric_Bps=2.5e9 / 8)
    host_edge = tree.path("h00-00-00", "h00-00-01")[0]
    edge_agg = tree.path("h00-00-00", "h00-01-00")[1]
    assert host_edge.capacity_Bps == pytest.approx(10e9 / 8)
    assert edge_agg.capacity_Bps == pytest.approx(2.5e9 / 8)
