"""Property tests: routing invariants on random multi-switch topologies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.links import Link
from repro.network.topology import Topology
from tests.conftest import link_between, nodes_of_kind


def _build(nracks: int, hosts_per_rack: int) -> Topology:
    """A chain of racks, each a star, joined by uplinks."""
    topo = Topology("t")
    switches = []
    for r in range(nracks):
        sw = f"sw{r}"
        hosts = [f"h{r}-{i}" for i in range(hosts_per_rack)]
        topo.star(sw, hosts, capacity_Bps=100.0, latency_s=1e-6)
        switches.append(sw)
    for a, b in zip(switches, switches[1:]):
        topo.add_link(a, b, Link(f"up:{a}-{b}", capacity_Bps=400.0, latency_s=1e-5))
    return topo


@given(
    nracks=st.integers(min_value=1, max_value=4),
    hosts_per_rack=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=999),
)
@settings(max_examples=60, deadline=None)
def test_routing_invariants(nracks, hosts_per_rack, seed):
    import random

    rng = random.Random(seed)
    topo = _build(nracks, hosts_per_rack)
    hosts = nodes_of_kind(topo, Topology.HOST)
    src, dst = rng.choice(hosts), rng.choice(hosts)
    path = topo.path(src, dst)
    if src == dst:
        assert path == []
        return
    # Path length: 2 hops within a rack, +1 per rack boundary crossed.
    rack = lambda h: int(h[1 : h.index("-")])
    expected = 2 + abs(rack(src) - rack(dst))
    assert len(path) == expected
    # Reverse route uses the same links in opposite directions.
    reverse = topo.path(dst, src)
    assert {d.link.name for d in path} == {d.link.name for d in reverse}
    fwd = {d.link.name: d.direction for d in path}
    rev = {d.link.name: d.direction for d in reverse}
    assert all(fwd[name] != rev[name] for name in fwd)
    # Latency symmetric.
    assert topo.path_latency(src, dst) == pytest.approx(topo.path_latency(dst, src))


@given(
    nracks=st.integers(min_value=2, max_value=4),
    cut=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=30, deadline=None)
def test_uplink_cut_partitions_exactly_the_crossing_pairs(nracks, cut):
    from repro.errors import NetworkError

    cut = min(cut, nracks - 2)
    topo = _build(nracks, 1)
    link_between(topo, f"sw{cut}", f"sw{cut + 1}").fail()
    topo.invalidate_routes()
    for a in range(nracks):
        for b in range(nracks):
            src, dst = f"h{a}-0", f"h{b}-0"
            crosses = (a <= cut) != (b <= cut)
            if crosses:
                with pytest.raises(NetworkError):
                    topo.path(src, dst)
            elif a != b:
                assert topo.path(src, dst)
