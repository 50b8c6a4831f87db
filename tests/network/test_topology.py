"""Unit tests: topology construction and routing."""

import pytest

from repro.errors import NetworkError
from repro.network.links import Link
from repro.network.topology import Topology


def _star():
    topo = Topology("t")
    topo.star("sw", ["a", "b", "c"], capacity_Bps=100.0, latency_s=1e-6)
    return topo


def test_star_shape():
    topo = _star()
    assert set(topo.endpoints(Topology.HOST)) == {"a", "b", "c"}
    assert topo.endpoints(Topology.SWITCH) == ["sw"]


def test_path_via_switch():
    topo = _star()
    path = topo.path("a", "b")
    assert len(path) == 2
    assert {d.link.name for d in path} == {"a--sw", "b--sw"}


def test_links_cached_until_a_link_is_added():
    topo = _star()
    links = topo.links()
    assert [link.name for link in links] == ["a--sw", "b--sw", "c--sw"]
    links.pop()  # callers get a copy
    assert topo.links() == topo.links() != links
    topo.add_host("d")
    topo.add_link("d", "sw", Link("d--sw", capacity_Bps=100.0))
    assert [link.name for link in topo.links()] == ["a--sw", "b--sw", "c--sw", "d--sw"]


def test_loopback_path_empty():
    topo = _star()
    assert topo.path("a", "a") == []


def test_path_latency_sums():
    topo = _star()
    assert topo.path_latency("a", "b") == pytest.approx(2e-6)


def test_no_route_raises():
    topo = _star()
    topo.add_host("island")
    with pytest.raises(NetworkError):
        topo.path("a", "island")


def test_unknown_endpoint_raises():
    topo = _star()
    with pytest.raises(NetworkError):
        topo.path("a", "ghost")


def test_down_link_blocks_route():
    topo = _star()
    topo.link_between("a", "sw").fail()
    with pytest.raises(NetworkError):
        topo.path("a", "b")
    topo.link_between("a", "sw").restore()
    assert len(topo.path("a", "b")) == 2


def test_link_to_unknown_endpoint_rejected():
    topo = Topology()
    topo.add_host("a")
    with pytest.raises(NetworkError):
        topo.add_link("a", "ghost", Link("x", 1.0))


def test_multi_switch_route():
    """Two stars joined by an uplink: 3-hop cross-rack path."""
    topo = Topology()
    topo.star("sw1", ["a"], capacity_Bps=10.0)
    topo.star("sw2", ["b"], capacity_Bps=10.0)
    topo.add_link("sw1", "sw2", Link("uplink", capacity_Bps=40.0))
    path = topo.path("a", "b")
    assert [d.link.name for d in path] == ["a--sw1", "uplink", "b--sw2"]


def test_direction_consistency():
    """a→b and b→a use opposite directions of the shared links."""
    topo = _star()
    fwd = {(d.link.name, d.direction) for d in topo.path("a", "b")}
    rev = {(d.link.name, d.direction) for d in topo.path("b", "a")}
    names_fwd = {n for n, _ in fwd}
    assert names_fwd == {n for n, _ in rev}
    # The shared a--sw link flips direction between the two routes.
    dir_fwd = dict(fwd)["a--sw"]
    dir_rev = dict(rev)["a--sw"]
    assert dir_fwd != dir_rev


def test_link_invalid_params():
    with pytest.raises(NetworkError):
        Link("bad", capacity_Bps=0.0)
    with pytest.raises(NetworkError):
        Link("bad", capacity_Bps=1.0, latency_s=-1.0)
