"""The one-flow closed form is the progressive-filling solve, bit for bit.

When a contention component holds a single flow, ``FlowNetwork`` sets
its rate with :func:`lone_flow_rate` instead of running
:func:`compute_maxmin_flow_rates`.  Every simulated float downstream
depends on the two agreeing exactly, so these properties compare them
with ``==``, never ``approx``: over path lengths 0–6, integer and
fractional weights, finite and infinite caps, and link capacities from
pristine down to the 1 B/s degradation floor.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.flows import Flow, FlowNetwork, compute_maxmin_flow_rates, lone_flow_rate
from repro.network.links import Link
from repro.sim.core import Environment

_capacity = st.one_of(
    st.integers(1, 10**10).map(float),
    st.floats(min_value=1.0, max_value=1e12, allow_nan=False, allow_infinity=False),
)
#: Degradation bandwidth factors; tiny ones hit the 1 B/s capacity floor.
_factor = st.one_of(
    st.none(),
    st.sampled_from([0.0, 1e-12, 1e-3, 0.05, 0.5]),
    st.floats(min_value=0.0, max_value=1.0),
)
_loss = st.one_of(st.none(), st.floats(min_value=0.0, max_value=0.99))
_weight = st.one_of(
    st.integers(1, 4).map(float),
    st.floats(min_value=1e-3, max_value=4.0, allow_nan=False, allow_infinity=False),
)
_cap = st.one_of(
    st.just(float("inf")),
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False),
)


def _links(specs):
    links = []
    for i, (capacity, factor, loss, direction) in enumerate(specs):
        link = Link(name=f"l{i}", capacity_Bps=capacity)
        if factor is not None or loss is not None:
            link.set_degradation(bandwidth_factor=factor, loss=loss)
        links.append(link.directed[direction])
    return links


_path = st.lists(
    st.tuples(_capacity, _factor, _loss, st.integers(0, 1)), min_size=0, max_size=6
)


@given(path=_path, weight=_weight, cap=_cap)
@settings(max_examples=400)
def test_lone_flow_rate_equals_progressive_filling(path, weight, cap):
    dlinks = _links(path)
    flow = Flow(path=tuple(dlinks), nbytes=1.0, cap_Bps=cap, weight=weight)
    expected = lone_flow_rate(flow)
    compute_maxmin_flow_rates([flow])
    assert flow.rate_Bps == expected


@given(path=_path.filter(len), weight=_weight, cap=_cap.filter(lambda c: c >= 1.0))
@settings(max_examples=200)
def test_network_rate_of_lone_flow_equals_progressive_filling(path, weight, cap):
    """Through ``FlowNetwork.start``: a flow alone on its links carries
    exactly the rate the general solver assigns it."""
    dlinks = _links(path)
    net = FlowNetwork(Environment())
    flow = net.start(dlinks, 1e6, cap_Bps=cap, weight=weight)
    mirror = Flow(path=flow.path, nbytes=flow.nbytes, cap_Bps=flow.cap_Bps, weight=flow.weight)
    compute_maxmin_flow_rates([mirror])
    assert flow.rate_Bps == mirror.rate_Bps
