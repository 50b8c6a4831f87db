"""Differential properties: incremental flow solver vs the global oracle.

The incremental engine re-solves only the contention component an event
touches; correctness rests on the invariant that a component-local
progressive filling equals the global max-min allocation restricted to
that component.  These properties drive random topologies through random
churn (starts, cancels, cap changes, link degradation + ``recompute()``,
time advancement) and check, after **every** operation, that the rates
the incremental engine carries are exactly what a from-scratch
:func:`compute_maxmin_flow_rates` over the active set would assign — and
that a side-by-side global-resolve network (the pre-incremental kernel,
``tests/network/global_resolve.py``) completes the same flows at the same
times with the same bytes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.flows import Flow, FlowNetwork, compute_maxmin_flow_rates
from repro.network.links import DirectedLink, Link
from repro.sim.core import Environment
from tests.network.global_resolve import GlobalResolveFlowNetwork

#: Operation kinds mutating the network mid-run.
_START, _CANCEL, _SETCAP, _LINKCAP, _WAIT = range(5)
#: Few links, mostly one direction: flows share directed links in most
#: sequences, so the oracle compares contended components, not lone flows.
_NLINKS = 4


def _ops_strategy():
    path = st.lists(
        # (link idx, direction)
        st.tuples(st.integers(0, _NLINKS - 1), st.sampled_from([0, 0, 0, 1])),
        min_size=1, max_size=4,
        unique_by=lambda t: t[0],
    )
    start = st.tuples(
        st.just(_START),
        st.integers(min_value=1, max_value=10**8),        # nbytes
        path,
        st.one_of(st.none(), st.integers(10**3, 10**7)),  # cap_Bps
    )
    cancel = st.tuples(st.just(_CANCEL), st.integers(0, 30))
    setcap = st.tuples(st.just(_SETCAP), st.integers(0, 30), st.integers(10**3, 10**7))
    linkcap = st.tuples(st.just(_LINKCAP), st.integers(0, _NLINKS - 1),
                        st.integers(10**3, 10**7))
    wait = st.tuples(st.just(_WAIT), st.integers(1, 2000))  # milliseconds
    return st.lists(
        st.one_of(start, cancel, setcap, linkcap, wait), min_size=1, max_size=30
    )


def _apply(op, env, net, links, started):
    """Apply one generated operation to a network; returns nothing."""
    kind = op[0]
    if kind == _START:
        _, nbytes, path, cap = op
        dlinks = [DirectedLink(links[i], d) for i, d in path]
        flow = net.start(
            dlinks, float(nbytes), cap_Bps=float(cap) if cap is not None else float("inf")
        )
        started.append(flow)
    elif kind == _CANCEL:
        if started:
            net.cancel(started[op[1] % len(started)])
    elif kind == _SETCAP:
        if started:
            net.set_cap(started[op[1] % len(started)], float(op[2]))
    elif kind == _LINKCAP:
        links[op[1]].capacity_Bps = float(op[2])
        net.recompute()
    elif kind == _WAIT:
        env.run(until=env.now + op[1] / 1000.0)


def _assert_rates_match_oracle(net: FlowNetwork) -> None:
    flows = list(net.iter_active())
    mirror = [Flow(path=f.path, nbytes=f.nbytes, cap_Bps=f.cap_Bps) for f in flows]
    compute_maxmin_flow_rates(mirror)
    for f, m in zip(flows, mirror):
        assert f.rate_Bps == pytest.approx(m.rate_Bps, rel=1e-9, abs=1e-9), (
            f"flow {f.label or f!r}: incremental rate {f.rate_Bps} != "
            f"oracle rate {m.rate_Bps}"
        )


@given(caps=st.lists(st.integers(10**4, 10**8), min_size=_NLINKS, max_size=_NLINKS),
       ops=_ops_strategy())
@settings(max_examples=150, deadline=None)
def test_incremental_rates_equal_global_oracle(caps, ops):
    """After every mutation, every active flow carries the exact rate a
    from-scratch global max-min solve would assign."""
    env = Environment()
    links = [Link(name=f"l{i}", capacity_Bps=float(c)) for i, c in enumerate(caps)]
    net = FlowNetwork(env)
    started: list[Flow] = []
    for op in ops:
        _apply(op, env, net, links, started)
        _assert_rates_match_oracle(net)
    env.run()
    assert not list(net.iter_active())
    _assert_rates_match_oracle(net)


@given(caps=st.lists(st.integers(10**4, 10**8), min_size=_NLINKS, max_size=_NLINKS),
       ops=_ops_strategy())
@settings(max_examples=100, deadline=None)
def test_incremental_matches_legacy_kernel_end_to_end(caps, ops):
    """The incremental and legacy kernels, fed the same operation
    sequence, finish the same flows at the same times with the same
    transferred byte counts."""
    runs = []
    for kernel in (FlowNetwork, GlobalResolveFlowNetwork):
        env = Environment()
        links = [Link(name=f"l{i}", capacity_Bps=float(c)) for i, c in enumerate(caps)]
        net = kernel(env)
        started: list[Flow] = []
        for op in ops:
            _apply(op, env, net, links, started)
        env.run()
        assert not list(net.iter_active())
        runs.append(started)

    inc_flows, leg_flows = runs
    assert len(inc_flows) == len(leg_flows)
    for a, b in zip(inc_flows, leg_flows):
        assert (a.finished_at is None) == (b.finished_at is None)
        if a.finished_at is not None:
            assert a.finished_at == pytest.approx(b.finished_at, rel=1e-6, abs=1e-6)
        assert a.transferred == pytest.approx(b.transferred, rel=1e-6, abs=1.0)
