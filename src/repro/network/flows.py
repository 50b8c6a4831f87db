"""Flow-level network simulation with incremental max-min fair sharing.

Every bulk transfer (an MPI message, a migration stream) is a *flow* over a
directed path of links.  Rates follow the standard fluid approximation
(max-min by progressive filling); it captures the sharing effects
the paper's experiments exhibit (concurrent MPI streams, migration
competing with application traffic) without packet-level cost.

The engine is **incremental and contention-scoped**: the allocation of a
max-min solve decomposes across connected components of the
*flow-contention graph* (flows are vertices; two flows are adjacent when
they share a directed link), because progressive filling on a component
only consumes capacity of links that carry no flow from any other
component.  A flow add/remove/cap-change therefore re-solves only the
component the changed flow touches; every other flow keeps its rate, its
credited progress, and its scheduled completion.  Progress is credited
*lazily* (per flow, at its last rate change) and completions come off a
per-flow heap, so one churn event costs O(component), not O(all flows).
"""

from __future__ import annotations

import heapq
import time as _time
from itertools import count
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

from repro.errors import LinkDownError, NetworkError, SimulationError
from repro.network.links import DirectedLink, Link
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment

_EPS = 1e-9
#: Minimum wakeup quantum: guards against sub-float-resolution timeouts
#: (``now + dt == now``) that would spin the event loop forever.
_MIN_DT = 1e-9


class Flow:
    """One in-flight bulk transfer.

    Slotted, since the scale campaign builds one per precopy round, and
    identity-hashed, as the engine's dict-as-set bookkeeping needs.
    """

    __slots__ = (
        "path", "nbytes", "cap_Bps", "label", "done", "remaining",
        "rate_Bps", "started_at", "finished_at", "_updated_at", "_active",
        "_progressing", "_finish_entry",
    )

    def __init__(
        self,
        path: tuple[DirectedLink, ...],
        nbytes: float,
        cap_Bps: float = float("inf"),
        label: str = "",
        done: Optional[Event] = None,
        remaining: float = 0.0,
        rate_Bps: float = 0.0,
        started_at: float = 0.0,
        finished_at: Optional[float] = None,
        _updated_at: float = 0.0,
        _active: bool = False,
        _progressing: bool = False,
        _finish_entry: Optional[tuple] = None,
    ) -> None:
        self.path = path
        self.nbytes = nbytes
        self.cap_Bps = cap_Bps
        self.label = label
        self.done = done
        self.remaining = remaining
        self.rate_Bps = rate_Bps
        self.started_at = started_at
        self.finished_at = finished_at
        #: Sim time ``remaining`` was last credited (lazy progress accounting).
        self._updated_at = _updated_at
        #: Registered in a FlowNetwork's active set.
        self._active = _active
        #: Counted in the network's progressing-flow tally (rate > eps).
        self._progressing = _progressing
        #: Current completion-heap entry (identity-compared; None = no entry).
        self._finish_entry = _finish_entry

    @property
    def finished(self) -> bool:
        return self.finished_at is not None

    @property
    def transferred(self) -> float:
        return self.nbytes - self.remaining

    def __repr__(self) -> str:
        return (
            f"Flow(path={self.path!r}, nbytes={self.nbytes!r}, cap_Bps={self.cap_Bps!r}, "
            f"label={self.label!r})"
        )


def compute_maxmin_flow_rates(flows: List[Flow]) -> None:
    """Assign ``rate_Bps`` to each flow by progressive filling (in place).

    Loopback flows (empty path) are only limited by their own cap.  The
    per-link active-flow count is maintained incrementally (O(rounds · F · L)
    instead of O(rounds · F² · L)).  Iteration follows the input order, so
    the result is deterministic for a given flow list — this function is
    both the per-component solver and the from-scratch oracle the
    incremental engine is property-tested against.
    """
    residual: Dict[DirectedLink, float] = {}
    #: Active flows per link, as a float: a share is ``residual * (1.0 / n)``,
    #: the form every pinned rate was computed in.
    active_count: Dict[DirectedLink, float] = {}
    for flow in flows:
        flow.rate_Bps = 0.0
        for dlink in flow.path:
            if dlink in residual:
                active_count[dlink] += 1.0
            else:
                residual[dlink] = dlink.capacity_Bps
                active_count[dlink] = 1.0

    active: Dict[Flow, None] = dict.fromkeys(flows)
    tentative: Dict[Flow, float] = {}
    while active:
        # Tentative rate of each active flow: its cap, or the fair share of
        # its tightest link.
        floor = float("inf")
        for flow in active:
            best = flow.cap_Bps
            for dlink in flow.path:
                share = residual[dlink] * (1.0 / active_count[dlink])
                if share < best:
                    best = share
            tentative[flow] = best
            if best < floor:
                floor = best

        threshold = floor + _EPS * max(floor, 1.0)
        frozen = [f for f in active if tentative[f] <= threshold]
        if not frozen:  # pragma: no cover - numeric safety
            frozen = list(active)
        for flow in frozen:
            rate = tentative[flow]
            flow.rate_Bps = rate if rate > 0.0 else 0.0
            for dlink in flow.path:
                new_residual = residual[dlink] - flow.rate_Bps
                residual[dlink] = new_residual if new_residual > 0.0 else 0.0
                active_count[dlink] -= 1.0
            del active[flow]


def lone_flow_rate(flow: Flow) -> float:
    """Max-min rate of a flow that shares none of its links.

    Progressive filling freezes a lone flow in its first round at the
    smaller of its cap and its tightest link, so this is exactly the rate
    :func:`compute_maxmin_flow_rates` assigns to ``[flow]`` (whose shares
    there are ``capacity * (1.0 / 1.0)``), without the per-link
    dictionaries.
    """
    best = flow.cap_Bps
    for dlink in flow.path:
        share = dlink.link.capacity_Bps
        if share < best:
            best = share
    return best if best > 0.0 else 0.0


class SolverStats:
    """Wall-clock accounting of solver invocations (perf instrumentation).

    Attached via :meth:`FlowNetwork.enable_solver_stats`; the scale
    benchmark reads p50/p99 solve times and the touched-flow distribution
    from here.  Disabled (``None``) by default — zero hot-path overhead.
    """

    __slots__ = ("calls", "flows_touched", "samples_s")

    def __init__(self) -> None:
        self.calls = 0
        self.flows_touched = 0
        self.samples_s: List[float] = []

    @property
    def total_s(self) -> float:
        return sum(self.samples_s)

    def percentile(self, q: float) -> float:
        """q-th percentile (0..100) of per-solve wall time, 0.0 if empty."""
        if not self.samples_s:
            return 0.0
        ordered = sorted(self.samples_s)
        idx = min(int(len(ordered) * q / 100.0), len(ordered) - 1)
        return ordered[idx]


class FlowNetwork:
    """Manages active flows and completes them at fluid-model times."""

    def __init__(self, env: "Environment", name: str = "flows") -> None:
        self.env = env
        self.name = name
        #: Active flows (insertion-ordered; dict-as-ordered-set).
        self._flows: Dict[Flow, None] = {}
        #: Per-link active-flow sets — the adjacency of the contention graph.
        self._link_flows: Dict[DirectedLink, Dict[Flow, None]] = {}
        #: Per-flow completion-time heap entries: (finish_at, seq, flow).
        self._completions: List[tuple] = []
        self._entry_seq = count()
        #: Flows currently progressing (rate > eps); a populated network
        #: with zero progressing flows is a deadlock and raises.
        self._nprogress = 0
        self._wakeup: Optional[Event] = None
        self._wakeup_at = float("inf")
        #: Running counters for diagnostics.
        self.total_started = 0
        self.total_completed = 0
        #: Optional solver wall-clock instrumentation (see SolverStats).
        self.solver_stats: Optional[SolverStats] = None

    # -- public API -----------------------------------------------------------

    def iter_active(self) -> Iterator[Flow]:
        """Iterate active flows without copying.

        The hot polling path (the telemetry probe) uses this; the
        caller must not start/cancel flows while iterating.
        """
        return iter(self._flows)

    def enable_solver_stats(self) -> SolverStats:
        """Start recording per-solve wall times; returns the collector."""
        if self.solver_stats is None:
            self.solver_stats = SolverStats()
        return self.solver_stats

    def start(
        self,
        path: List[DirectedLink],
        nbytes: float,
        cap_Bps: float = float("inf"),
        label: str = "",
    ) -> Flow:
        """Begin a transfer; ``flow.done`` fires when the last byte lands."""
        if nbytes < 0:
            raise NetworkError("nbytes must be non-negative")
        if len(set(path)) != len(path):
            raise NetworkError(f"{self.name}: path repeats a directed link")
        for dlink in path:
            if not dlink.link.up:
                raise NetworkError(f"{self.name}: link {dlink.link.name} is down")
        if not path and cap_Bps == float("inf"):
            # A loopback flow with no cap would complete instantaneously —
            # give it effectively-infinite but finite service.
            cap_Bps = 1e15
        now = self.env.now
        self._settle(now)
        nbytes = float(nbytes)
        flow = Flow(
            tuple(path), nbytes, float(cap_Bps), label,
            done=Event(self.env), remaining=nbytes, started_at=now, _updated_at=now,
        )
        self.total_started += 1
        if nbytes <= _EPS:
            flow.finished_at = now
            self.total_completed += 1
            flow.done.succeed(flow)
            return flow
        self._add(flow)
        self._resolve_after_change([flow])
        return flow

    def cancel(self, flow: Flow) -> None:
        """Abort a flow (its ``done`` never fires)."""
        if not flow._active:
            return
        now = self.env.now
        self._settle(now)
        if not flow._active:  # completed at exactly this instant
            return
        self._credit(flow, now)
        neighbors = self._neighbors(flow)
        self._remove(flow)
        self._resolve_after_change(neighbors)

    def set_cap(self, flow: Flow, cap_Bps: float) -> None:
        """Change a flow's rate cap mid-transfer (e.g. throttling)."""
        if not flow._active:
            return
        self._settle(self.env.now)
        if not flow._active:
            return
        flow.cap_Bps = float(cap_Bps)
        self._resolve_after_change([flow])

    def recompute(self) -> None:
        """Re-solve rates after an external capacity change (degradation).

        Links are mutable; the flow engine only re-solves when its own flow
        set changes.  Chaos injection that rewrites ``link.capacity_Bps``
        mid-transfer must call this to credit progress at the old rates and
        reschedule at the new ones.  The changed links are unknown, so this
        is the one mutation that always re-solves globally.
        """
        self._settle(self.env.now)
        self._resolve_after_change(list(self._flows), scope_all=True)

    def fail_flows_on(self, link: Link) -> int:
        """Fail every in-flight flow whose path crosses ``link``.

        Flows only check link state at start; a mid-stream outage must
        actively kill them.  Each victim's ``done`` event fails with
        :class:`LinkDownError`.  Returns the number of flows killed.
        """
        now = self.env.now
        self._settle(now)
        victims: Dict[Flow, None] = {}
        for dlink in link.directed:
            for flow in self._link_flows.get(dlink, ()):
                victims[flow] = None
        neighbors: Dict[Flow, None] = {}
        for flow in victims:
            self._credit(flow, now)
            for other in self._neighbors(flow):
                neighbors[other] = None
        for flow in victims:
            self._remove(flow)
            flow.done.fail(
                LinkDownError(
                    f"{self.name}: link {link.name} dropped mid-transfer"
                    f" ({flow.label or 'flow'}: {flow.transferred:.0f}/{flow.nbytes:.0f} B)"
                )
            )
        self._resolve_after_change([f for f in neighbors if f._active])
        return len(victims)

    # -- bookkeeping ----------------------------------------------------------

    def _add(self, flow: Flow) -> None:
        self._flows[flow] = None
        flow._active = True
        for dlink in flow.path:
            bucket = self._link_flows.get(dlink)
            if bucket is None:
                bucket = self._link_flows[dlink] = {}
            bucket[flow] = None

    def _remove(self, flow: Flow) -> None:
        del self._flows[flow]
        flow._active = False
        flow._finish_entry = None
        if flow._progressing:
            flow._progressing = False
            self._nprogress -= 1
        for dlink in flow.path:
            bucket = self._link_flows[dlink]
            del bucket[flow]
            if not bucket:
                del self._link_flows[dlink]

    def _credit(self, flow: Flow, now: float) -> None:
        """Materialize lazily-accounted progress up to ``now``."""
        elapsed = now - flow._updated_at
        if elapsed > 0.0 and flow.rate_Bps > 0.0:
            remaining = flow.remaining - flow.rate_Bps * elapsed
            flow.remaining = remaining if remaining > 0.0 else 0.0
        flow._updated_at = now

    def _neighbors(self, flow: Flow) -> List[Flow]:
        """Flows sharing a link with ``flow`` (its contention-graph edges)."""
        seen: Dict[Flow, None] = {}
        for dlink in flow.path:
            for other in self._link_flows.get(dlink, ()):
                if other is not flow:
                    seen[other] = None
        return list(seen)

    def _component(self, seeds: List[Flow]) -> List[Flow]:
        """Connected component(s) of the contention graph containing ``seeds``.

        A single seed that is alone in every one of its link buckets is
        its own component: the search would visit only it.
        """
        if len(seeds) == 1:
            flow = seeds[0]
            if flow._active:
                link_flows = self._link_flows
                for dlink in flow.path:
                    if len(link_flows[dlink]) != 1:
                        break
                else:
                    return [flow]
        seen: Dict[Flow, None] = dict.fromkeys(s for s in seeds if s._active)
        stack = list(seen)
        while stack:
            flow = stack.pop()
            for dlink in flow.path:
                for other in self._link_flows[dlink]:
                    if other not in seen:
                        seen[other] = None
                        stack.append(other)
        return list(seen)

    # -- solving --------------------------------------------------------------

    def _resolve_after_change(self, seeds: List[Flow], scope_all: bool = False) -> None:
        """Re-solve rates for the contention component(s) of ``seeds``."""
        affected = list(self._flows) if scope_all else self._component(seeds)
        if affected:
            self._solve(affected)
        self._check_progress()
        self._schedule_wakeup()

    def _solve(self, affected: List[Flow]) -> None:
        """Credit progress, recompute rates, and reschedule ``affected``."""
        stats = self.solver_stats
        t0 = _time.perf_counter() if stats is not None else 0.0
        now = self.env.now
        for flow in affected:
            self._credit(flow, now)
        if len(affected) == 1:
            affected[0].rate_Bps = lone_flow_rate(affected[0])
        else:
            compute_maxmin_flow_rates(affected)
        for flow in affected:
            progressing = flow.rate_Bps > _EPS
            if progressing != flow._progressing:
                flow._progressing = progressing
                self._nprogress += 1 if progressing else -1
            if progressing:
                finish_at = now + flow.remaining / flow.rate_Bps
                entry = (finish_at, next(self._entry_seq), flow)
                flow._finish_entry = entry
                heapq.heappush(self._completions, entry)
            else:
                flow._finish_entry = None
        if stats is not None:
            stats.calls += 1
            stats.flows_touched += len(affected)
            stats.samples_s.append(_time.perf_counter() - t0)

    def _check_progress(self) -> None:
        if self._flows and self._nprogress == 0:
            raise SimulationError(
                f"FlowNetwork {self.name!r}: flows present but none can progress"
            )

    # -- completions ----------------------------------------------------------

    def _settle(self, now: float) -> None:
        """Complete every flow whose scheduled finish time is due at ``now``."""
        heap = self._completions
        finished: List[Flow] = []
        horizon = now + _MIN_DT
        while heap and heap[0][0] <= horizon:
            entry = heapq.heappop(heap)
            flow = entry[2]
            if entry is not flow._finish_entry or not flow._active:
                continue  # stale entry (rate changed or flow removed)
            finished.append(flow)
        if not finished:
            return
        # The finishers' neighbours, in _neighbors order; a bucket holding
        # only the finisher itself has none to offer.
        link_flows = self._link_flows
        neighbors: Dict[Flow, None] = {}
        for flow in finished:
            for dlink in flow.path:
                bucket = link_flows[dlink]
                if len(bucket) > 1:
                    for other in bucket:
                        if other is not flow:
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
        # Survivors may have sped up (earlier finishes): make sure a wakeup
        # is pending at or before the new heap minimum.
        self._schedule_wakeup()

    def _schedule_wakeup(self) -> None:
        heap = self._completions
        while heap:
            entry = heap[0]
            flow = entry[2]
            if entry is flow._finish_entry and flow._active:
                break
            heapq.heappop(heap)
        if not heap:
            self._wakeup = None
            self._wakeup_at = float("inf")
            return
        due = heap[0][0]
        now = self.env.now
        if self._wakeup is not None and self._wakeup_at <= due + _MIN_DT:
            # The pending wakeup fires at or before the next completion; a
            # spurious early fire just settles nothing and reschedules.
            return
        delay = due - now
        if delay < _MIN_DT:
            delay = _MIN_DT
        wakeup = self.env.timeout(delay)
        self._wakeup = wakeup
        self._wakeup_at = now + delay
        wakeup.callbacks.append(self._on_wakeup)

    def _on_wakeup(self, event: Event) -> None:
        if event is not self._wakeup:
            return
        self._wakeup = None
        self._wakeup_at = float("inf")
        self._settle(self.env.now)
        # A settle that completed flows ends in _schedule_wakeup.  When
        # that armed a wakeup, a second call would find the same valid
        # heap top and keep it, so it is skipped under exactly that test.
        wakeup = self._wakeup
        if wakeup is None or self._wakeup_at > self._completions[0][0] + _MIN_DT:
            self._schedule_wakeup()
