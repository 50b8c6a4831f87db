"""Oracle: the in-house BFS router against networkx's shortest paths.

networkx is a test-only dependency; the module skips without it.  Each
repo topology is replayed onto an ``nx.Graph`` through the same
``add_*`` calls that built it, and every ordered node pair whose
shortest route is unique must route the same way in both.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.hardware.cluster import (
    build_agc_cluster,
    build_heterogeneous_cluster,
    build_two_site_cluster,
)
from repro.network.fattree import FatTree
from repro.network.links import Link
from repro.network.topology import Topology
from repro.orchestrator.scenario import build_fleet_cluster
from tests.conftest import link_between

nx = pytest.importorskip("networkx")


@pytest.fixture
def mirrored(monkeypatch):
    """Mirror every ``add_*`` call on any :class:`Topology` onto an
    ``nx.Graph``; returns ``[(topology, graph)]`` in build order."""
    built = []
    graphs = {}

    def graph_of(topo):
        if id(topo) not in graphs:
            graphs[id(topo)] = nx.Graph()
            built.append((topo, graphs[id(topo)]))
        return graphs[id(topo)]

    def mirror(method, replay):
        original = getattr(Topology, method)

        def wrapper(self, *args):
            original(self, *args)
            replay(graph_of(self), *args)

        monkeypatch.setattr(Topology, method, wrapper)

    mirror("add_host", lambda g, name: g.add_node(name))
    mirror("add_switch", lambda g, name: g.add_node(name))
    mirror("add_link", lambda g, a, b, link: g.add_edge(a, b, link=link))
    return built


def _links_on(graph, nodes):
    return [graph.edges[a, b]["link"] for a, b in zip(nodes, nodes[1:])]


BUILDERS = {
    "agc": lambda: build_agc_cluster(ib_nodes=4, eth_nodes=4),
    "two-site": lambda: build_two_site_cluster(),
    "heterogeneous": lambda: build_heterogeneous_cluster(),
    "fleet": lambda: build_fleet_cluster(4, spares=2),
    "fattree-4": lambda: FatTree(4),
}


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_every_unique_route_matches_networkx(mirrored, builder):
    BUILDERS[builder]()
    assert mirrored
    for topo, graph in mirrored:
        assert sorted(topo.links(), key=lambda link: link.link_id) == topo.links()
        assert set(topo.links()) == {d["link"] for _, _, d in graph.edges(data=True)}
        compared = 0
        for src in graph:
            for dst in graph:
                if src == dst:
                    continue
                routes = list(nx.all_shortest_paths(graph, src, dst))
                ours = [d.link for d in topo.path(src, dst)]
                assert len(ours) == len(routes[0]) - 1
                if len(routes) == 1:
                    assert ours == _links_on(graph, nx.shortest_path(graph, src, dst))
                    compared += 1
        assert compared, f"{topo.name}: no unique route to compare"


@st.composite
def graphs(draw):
    """A random undirected graph on up to 8 nodes, edges in draw order."""
    n = draw(st.integers(min_value=2, max_value=8))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return n, [(b, a) if flip else (a, b) for (a, b), flip in zip(edges, flips)]


def _build(n, edges):
    topo, graph = Topology("random"), nx.Graph()
    for i in range(n):
        topo.add_switch(f"n{i}")
        graph.add_node(f"n{i}")
    for a, b in edges:
        link = Link(f"n{a}~n{b}", capacity_Bps=1.0)
        topo.add_link(f"n{a}", f"n{b}", link)
        graph.add_edge(f"n{a}", f"n{b}", link=link)
    return topo, graph


@given(spec=graphs())
@settings(max_examples=80, deadline=None)
def test_random_graph_routes_are_valid_shortest_and_deterministic(spec):
    topo, graph = _build(*spec)
    again, _ = _build(*spec)
    for src in graph:
        for dst in graph:
            if src == dst:
                continue
            if not nx.has_path(graph, src, dst):
                with pytest.raises(NetworkError):
                    topo.path(src, dst)
                continue
            route = topo.path(src, dst)
            assert len(route) == nx.shortest_path_length(graph, src, dst)
            # A valid walk: each hop leaves the node the last one reached,
            # in the link direction that (min, max) name order defines.
            at = src
            for dlink in route:
                ends = dlink.link.name.split("~")
                assert at in ends
                nxt = ends[1] if at == ends[0] else ends[0]
                assert dlink.direction == (0 if at <= nxt else 1)
                at = nxt
            assert at == dst
            assert [(d.link.name, d.direction) for d in again.path(src, dst)] == [
                (d.link.name, d.direction) for d in route
            ]


def test_unknown_disconnected_and_down_raise():
    topo, _ = _build(4, [(0, 1), (1, 2)])
    with pytest.raises(NetworkError, match="no route"):
        topo.path("n0", "ghost")
    with pytest.raises(NetworkError, match="no route"):
        topo.path("ghost", "n0")
    with pytest.raises(NetworkError, match="no route"):
        topo.path("n0", "n3")
    link_between(topo, "n1", "n2").fail()
    with pytest.raises(NetworkError, match="down"):
        topo.path("n0", "n2")
