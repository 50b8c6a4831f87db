"""The flow engine's lone-flow shortcuts change no rate, time or event.

``FlowNetwork`` skips work for a flow that is alone on every one of its
links: ``_component`` returns it without a search, ``_settle`` skips its
neighbour scan when it finishes, and ``_on_wakeup`` does not repeat a
wakeup check ``_settle`` just made.  These properties drive random
starts, cancels, cap changes, link kills, capacity changes with
``recompute()`` and completions, and after **every** operation check:

* ``_component`` of each flow equals the breadth-first search it
  shortcuts (:func:`bfs_component`, the search before the shortcut);
* a side-by-side :class:`ReferenceFlowNetwork`, which always searches,
  always scans and always re-checks, carries the same rates and
  remaining bytes and finishes the same flows at the same times, with
  the same number of kernel events (compared with ``==``, not approx).
"""

from __future__ import annotations

import heapq
from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.flows import _MIN_DT, Flow, FlowNetwork
from repro.network.links import DirectedLink, Link
from repro.sim.core import Environment
from repro.sim.events import Event

_START, _CANCEL, _SETCAP, _KILL, _LINKCAP, _WAIT = range(6)
#: Few links, mostly one direction: flows overlap often, so lone and
#: shared buckets both come up in most sequences.
_NLINKS = 4


def bfs_component(net: FlowNetwork, seeds: List[Flow]) -> List[Flow]:
    """Connected component(s) of ``net``'s contention graph, by search."""
    seen: Dict[Flow, None] = dict.fromkeys(s for s in seeds if s._active)
    stack = list(seen)
    while stack:
        flow = stack.pop()
        for dlink in flow.path:
            for other in net._link_flows[dlink]:
                if other not in seen:
                    seen[other] = None
                    stack.append(other)
    return list(seen)


class ReferenceFlowNetwork(FlowNetwork):
    """The engine without its lone-flow shortcuts."""

    def _component(self, seeds: List[Flow]) -> List[Flow]:
        return bfs_component(self, seeds)

    def _settle(self, now: float) -> None:
        heap = self._completions
        finished: List[Flow] = []
        horizon = now + _MIN_DT
        while heap and heap[0][0] <= horizon:
            entry = heapq.heappop(heap)
            flow = entry[2]
            if entry is not flow._finish_entry or not flow._active:
                continue
            finished.append(flow)
        if not finished:
            return
        neighbors: Dict[Flow, None] = {}
        for flow in finished:
            for other in self._neighbors(flow):
                neighbors[other] = None
        for flow in finished:
            flow.remaining = 0.0
            flow._updated_at = now
            self._remove(flow)
            flow.finished_at = now
            self.total_completed += 1
            flow.done.succeed(flow)
        affected = [f for f in neighbors if f._active]
        if affected:
            self._solve(self._component(affected))
        self._check_progress()
        self._schedule_wakeup()

    def _on_wakeup(self, event: Event) -> None:
        if event is not self._wakeup:
            return
        self._wakeup = None
        self._wakeup_at = float("inf")
        self._settle(self.env.now)
        self._schedule_wakeup()


def _defuse(event: Event) -> None:
    # A killed flow's ``done`` fails; nothing in these runs waits on it.
    event._defused = True


def _ops():
    path = st.lists(
        st.tuples(st.integers(0, _NLINKS - 1), st.sampled_from([0, 0, 0, 1])),
        min_size=0, max_size=3, unique_by=lambda t: t[0],
    )
    start = st.tuples(
        st.just(_START),
        st.integers(1, 10**8),                          # nbytes
        path,
        st.one_of(st.none(), st.integers(10**3, 10**7)),  # cap_Bps
    )
    cancel = st.tuples(st.just(_CANCEL), st.integers(0, 30))
    setcap = st.tuples(st.just(_SETCAP), st.integers(0, 30), st.integers(10**3, 10**7))
    kill = st.tuples(st.just(_KILL), st.integers(0, _NLINKS - 1))
    linkcap = st.tuples(st.just(_LINKCAP), st.integers(0, _NLINKS - 1),
                        st.integers(10**3, 10**7))
    wait = st.tuples(st.just(_WAIT), st.integers(1, 3000))  # milliseconds
    return st.lists(
        st.one_of(start, start, cancel, setcap, kill, linkcap, wait),
        min_size=1, max_size=40,
    )


class _Run:
    """One network under one operation sequence."""

    def __init__(self, kernel, caps) -> None:
        self.env = Environment()
        self.links = [Link(name=f"l{i}", capacity_Bps=float(c)) for i, c in enumerate(caps)]
        self.net = kernel(self.env)
        self.started: List[Flow] = []
        self.killed: List[int] = []

    def apply(self, op) -> None:
        kind, env, net, started = op[0], self.env, self.net, self.started
        if kind == _START:
            _, nbytes, path, cap = op
            flow = net.start(
                [DirectedLink(self.links[i], d) for i, d in path], float(nbytes),
                cap_Bps=float(cap) if cap is not None else float("inf"),
            )
            flow.done.callbacks.append(_defuse)
            started.append(flow)
        elif kind == _CANCEL and started:
            net.cancel(started[op[1] % len(started)])
        elif kind == _SETCAP and started:
            net.set_cap(started[op[1] % len(started)], float(op[2]))
        elif kind == _KILL:
            self.killed.append(net.fail_flows_on(self.links[op[1]]))
        elif kind == _LINKCAP:
            self.links[op[1]].capacity_Bps = float(op[2])
            net.recompute()
        elif kind == _WAIT:
            env.run(until=env.now + op[1] / 1000.0)

    def state(self) -> tuple:
        return (
            self.env.now,
            self.env.events_processed,
            self.killed,
            [(f._active, f.rate_Bps, f.remaining, f.finished_at) for f in self.started],
        )


def _assert_shortcut_matches_search(net: FlowNetwork, flows: List[Flow]) -> None:
    for flow in flows:
        assert net._component([flow]) == bfs_component(net, [flow])


@given(caps=st.lists(st.integers(10**4, 10**8), min_size=_NLINKS, max_size=_NLINKS),
       ops=_ops())
@settings(max_examples=200, deadline=None)
def test_lone_flow_shortcuts_match_the_search(caps, ops):
    fast = _Run(FlowNetwork, caps)
    ref = _Run(ReferenceFlowNetwork, caps)
    for op in ops:
        fast.apply(op)
        ref.apply(op)
        _assert_shortcut_matches_search(fast.net, fast.started)
        assert fast.state() == ref.state()
    fast.env.run()
    ref.env.run()
    assert not list(fast.net.iter_active())
    assert fast.state() == ref.state()


def test_lone_shortcut_covers_loopback_and_inactive_flows():
    env = Environment()
    net = FlowNetwork(env)
    link = Link(name="l", capacity_Bps=1e6)
    loop = net.start([], 1e6, cap_Bps=1e3)
    alone = net.start([link.directed[0]], 1e6)
    assert net._component([loop]) == [loop]
    assert net._component([alone]) == [alone]
    shared = net.start([link.directed[0]], 1e6)
    assert net._component([alone]) == bfs_component(net, [alone]) == [alone, shared]
    net.cancel(alone)
    assert net._component([alone]) == [] == bfs_component(net, [alone])

