"""Unit + property tests: the flow-level network engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.network.flows import Flow, FlowNetwork, compute_maxmin_flow_rates
from repro.network.links import DirectedLink, Link


def _dlink(capacity, name="l"):
    return DirectedLink(Link(name=name, capacity_Bps=capacity), 0)


def _mkflow(path, nbytes, cap=float("inf")):
    flow = Flow(path=tuple(path), nbytes=nbytes, cap_Bps=cap)
    flow.remaining = nbytes
    return flow


# -- rate computation ------------------------------------------------------------


def test_single_flow_gets_link_capacity():
    link = _dlink(100.0)
    flows = [_mkflow([link], 1000)]
    compute_maxmin_flow_rates(flows)
    assert flows[0].rate_Bps == pytest.approx(100.0)


def test_two_flows_share_link():
    link = _dlink(100.0)
    flows = [_mkflow([link], 1000), _mkflow([link], 1000)]
    compute_maxmin_flow_rates(flows)
    assert [f.rate_Bps for f in flows] == pytest.approx([50.0, 50.0])


def test_capped_flow_frees_capacity():
    link = _dlink(100.0)
    flows = [_mkflow([link], 1000, cap=10.0), _mkflow([link], 1000)]
    compute_maxmin_flow_rates(flows)
    assert flows[0].rate_Bps == pytest.approx(10.0)
    assert flows[1].rate_Bps == pytest.approx(90.0)


def test_bottleneck_on_different_links():
    thin, fat = _dlink(10.0, "thin"), _dlink(100.0, "fat")
    crossing = _mkflow([thin, fat], 1000)
    local = _mkflow([fat], 1000)
    compute_maxmin_flow_rates([crossing, local])
    assert crossing.rate_Bps == pytest.approx(10.0)
    assert local.rate_Bps == pytest.approx(90.0)


@given(
    capacities=st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=1, max_size=4),
    nflows=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=100)
def test_maxmin_flow_invariants(capacities, nflows, seed):
    """No link oversubscribed; all rates non-negative; bottlenecked flows
    saturate at least one of their links."""
    import random

    rng = random.Random(seed)
    links = [_dlink(c, name=f"l{i}") for i, c in enumerate(capacities)]
    flows = []
    for _ in range(nflows):
        path = rng.sample(links, rng.randint(1, len(links)))
        flows.append(_mkflow(path, 1000))
    compute_maxmin_flow_rates(flows)
    # Links never oversubscribed.
    for link in links:
        load = sum(f.rate_Bps for f in flows if link in f.path)
        assert load <= link.capacity_Bps * (1 + 1e-6)
    assert all(f.rate_Bps >= 0 for f in flows)
    # Every flow is bottlenecked somewhere (work conservation):
    for flow in flows:
        saturated = any(
            sum(g.rate_Bps for g in flows if dlink in g.path)
            >= dlink.capacity_Bps * (1 - 1e-6)
            for dlink in flow.path
        )
        assert saturated


# -- directed links -------------------------------------------------------------------


def test_separately_built_directed_links_share_capacity(env):
    """Two flows each handed their own ``DirectedLink(link, 0)`` contend
    for the one link, and the reverse direction stays independent."""
    link = Link(name="l", capacity_Bps=100.0)
    net = FlowNetwork(env)
    a = net.start([DirectedLink(link, 0)], 500.0)
    b = net.start([DirectedLink(link, 0)], 500.0)
    c = net.start([DirectedLink(link, 1)], 500.0)
    assert (a.rate_Bps, b.rate_Bps, c.rate_Bps) == pytest.approx((50.0, 50.0, 100.0))
    env.run()
    assert a.finished_at == pytest.approx(10.0)
    assert c.finished_at == pytest.approx(5.0)


def test_directed_links_are_interned():
    link = Link(name="l", capacity_Bps=100.0)
    assert DirectedLink(link, 0) is link.directed[0]
    assert DirectedLink(link, 1) is link.directed[1]
    assert DirectedLink(link, 0) is not DirectedLink(link, 1)
    assert DirectedLink(link, 1).direction == 1
    assert DirectedLink(link, 0).link is link


def test_directed_link_repr_names_link_not_address():
    dlink = DirectedLink(Link(name="h0--sw", capacity_Bps=100.0), 1)
    assert repr(dlink) == "<DirectedLink h0--sw/1>"
    assert "0x" not in repr(dlink)


# -- Flow ---------------------------------------------------------------------------


def test_flow_is_slotted_and_keeps_its_keywords():
    dlink = _dlink(100.0)
    fields = dict(
        path=(dlink,), nbytes=10.0, cap_Bps=5.0, label="x", done=None,
        remaining=4.0, rate_Bps=3.0, started_at=1.0, finished_at=None,
        _updated_at=1.5, _active=False, _progressing=False, _finish_entry=None,
    )
    flow = Flow(**fields)
    assert not hasattr(flow, "__dict__")
    assert {name: getattr(flow, name) for name in fields} == fields
    assert flow.transferred == 6.0 and not flow.finished
    with pytest.raises(AttributeError):
        flow.colour = "red"
    bare = Flow((dlink,), 10.0)
    assert (bare.cap_Bps, bare.label, bare.remaining) == (float("inf"), "", 0.0)
    # Identity semantics: equal fields, distinct flows, usable as dict keys.
    twin = Flow(**fields)
    assert twin != flow and len({flow: None, twin: None}) == 2
    assert repr(flow).startswith("Flow(path=(<DirectedLink l/0>,), nbytes=10.0, cap_Bps=5.0")


# -- FlowNetwork dynamics -------------------------------------------------------------


def test_completion_time_single(env):
    net = FlowNetwork(env)
    link = _dlink(100.0)
    flow = net.start([link], 500.0)
    env.run()
    assert flow.finished_at == pytest.approx(5.0)


def test_sharing_slows_completion(env):
    net = FlowNetwork(env)
    link = _dlink(100.0)
    a = net.start([link], 500.0)

    def later(env):
        yield env.timeout(1.0)
        b = net.start([link], 200.0)
        yield b.done

    proc = env.process(later(env))
    env.run()
    # a: 100 B in 1 s alone, then shares 50/50 until b (200 B) finishes at
    # t=5; a's remaining 200 B then runs at full rate → done at t=7.
    assert a.finished_at == pytest.approx(7.0)


def test_zero_byte_flow_completes_immediately(env):
    net = FlowNetwork(env)
    flow = net.start([_dlink(10.0)], 0.0)
    env.run()
    assert flow.finished_at == pytest.approx(0.0)


def test_loopback_flow_with_cap(env):
    net = FlowNetwork(env)
    flow = net.start([], 100.0, cap_Bps=10.0)
    env.run()
    assert flow.finished_at == pytest.approx(10.0)


def test_uncapped_loopback_does_not_hang(env):
    net = FlowNetwork(env)
    flow = net.start([], 100.0)
    env.run()
    assert flow.finished


def test_down_link_rejected(env):
    net = FlowNetwork(env)
    link = _dlink(10.0)
    link.link.fail()
    with pytest.raises(NetworkError):
        net.start([link], 100.0)


def test_path_repeating_a_directed_link_rejected(env):
    """A repeated hop would count the flow twice on one link (half rate)
    and break its removal; start refuses it before touching any state."""
    net = FlowNetwork(env)
    link = _dlink(100.0)
    with pytest.raises(NetworkError, match="repeats"):
        net.start([link, link], 500.0)
    assert not list(net.iter_active())
    assert net.total_started == 0
    env.run()
    # The reverse direction is a different directed link: allowed.
    flow = net.start([link, DirectedLink(link.link, 1)], 500.0)
    assert flow.rate_Bps == 100.0
    env.run()
    assert flow.finished_at == pytest.approx(5.0)
    assert not list(net.iter_active())


def test_cancel_frees_bandwidth(env):
    net = FlowNetwork(env)
    link = _dlink(100.0)
    doomed = net.start([link], 10_000.0)
    survivor = net.start([link], 100.0)

    def cancel(env):
        yield env.timeout(1.0)
        net.cancel(doomed)

    env.process(cancel(env))
    env.run()
    # survivor: 50 B in first second, 50 B at full rate → t = 1.5.
    assert survivor.finished_at == pytest.approx(1.5)
    assert not doomed.finished


def test_set_cap_midflight(env):
    net = FlowNetwork(env)
    link = _dlink(100.0)
    flow = net.start([link], 200.0, cap_Bps=100.0)

    def throttle(env):
        yield env.timeout(1.0)
        net.set_cap(flow, 10.0)

    env.process(throttle(env))
    env.run()
    # 100 B in first second, remaining 100 at 10 B/s → t = 11.
    assert flow.finished_at == pytest.approx(11.0)


def test_counters(env):
    net = FlowNetwork(env)
    link = _dlink(10.0)
    net.start([link], 10.0)
    net.start([link], 10.0)
    env.run()
    assert net.total_started == 2
    assert net.total_completed == 2


def test_many_tiny_flows_terminate(env):
    """Regression: sub-resolution wakeups must not spin forever."""
    net = FlowNetwork(env)
    link = _dlink(1e9)
    env.run(until=1000.0)  # advance the clock so float resolution is coarse
    flows = [net.start([link], 8.0) for _ in range(50)]
    env.run()
    assert all(f.finished for f in flows)
