"""Phi-accrual heartbeat failure detection: the phi source for telemetry.

Controllers and agents cannot distinguish "node is slow" from "node is
dead" with a boolean timeout — the phi-accrual detector (Hayashibara et
al., the detector behind Cassandra/Akka) replaces the boolean with a
*suspicion level*: ``phi(t)`` grows continuously with the time since the
last heartbeat, scaled by the node's own observed inter-arrival history.

:class:`HeartbeatMonitor` only keeps score.  The incident pipeline's
:class:`~repro.incident.telemetry.LinkTelemetryProbe` samples every
node's phi onto the telemetry bus as ``host.phi``, and
:class:`~repro.incident.detectors.PhiSpikeDetector` owns the one
suspicion threshold (``WARN_PHI``): a spike opens a ``host-failure``
incident whose runbook evacuates live VMs and restores dead ones from
their last committed checkpoint.

We use the exponential-interarrival variant: with mean heartbeat
interval ``m`` and ``Δt`` since the last beat, the probability the node
is still alive is ``exp(-Δt/m)``, giving

    phi(Δt) = -log10(P_later) = (Δt / m) · log10(e)

so ``phi = 8`` means "the chance this silence is benign is 1e-8".  A
resumed heartbeat drops phi to ~0 — suspicion, unlike a tripped
timeout, is reversible.

Periodic beats cost no simulation work.  :meth:`HeartbeatMonitor.beat_every`
beats once and records a schedule: the node beats again at ``t0 + p``,
``(t0 + p) + p``, … — the instants a heartbeat loop's timers would fire
— and those beats are caught up whenever phi is read.  A node stops
beating when :meth:`~repro.hardware.cluster.Cluster.fail_host` kills
it; nobody is left to run its agent.

A read or a kill may land on the very instant a beat is due.  The
heartbeat loop armed that beat's timer one interval earlier, so the
beat came first exactly when the caller's own timer was armed later: a
process woken by a timer whose delay is shorter than the beat interval
sees the beat sent (the incident probe, ticking every 0.25 s against
0.5 s beats), one armed earlier does not (a drill's kill, armed a second
ahead, silences the node first).  Any other caller — code outside a
process, a process just started or interrupted — counts the beat as not
yet sent.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.cluster import Cluster

#: log10(e): converts nats of suspicion into phi's base-10 scale.
_LOG10_E = math.log10(math.e)
#: Inter-arrival times a detector remembers.
WINDOW = 64
#: Assumed mean interval until the first two beats arrive.
BOOTSTRAP_INTERVAL_S = 1.0
#: Floor on the mean interval (guards against a burst collapsing it to 0).
MIN_INTERVAL_S = 1e-3
#: Relative slack on :meth:`HeartbeatMonitor.phi_ceiling`: covers the
#: rounding of beat instants, interval sums and phi itself in any run
#: shorter than about 10^9 beat periods.
_CEILING_SLACK = 1e-6
_INF = float("inf")


class PhiAccrualFailureDetector:
    """Suspicion level for one heartbeat stream."""

    def __init__(self) -> None:
        #: Sliding window of observed inter-arrival times.
        self.intervals: Deque[float] = deque(maxlen=WINDOW)
        self.last_beat: Optional[float] = None
        self.beats = 0
        #: :attr:`mean_interval_s`, computed at most once per beat.
        self._mean: Optional[float] = BOOTSTRAP_INTERVAL_S

    def heartbeat(self, now: float) -> None:
        if self.last_beat is not None:
            self.intervals.append(max(now - self.last_beat, 0.0))
            self._mean = None
        self.last_beat = now
        self.beats += 1

    @property
    def mean_interval_s(self) -> float:
        if self._mean is None:
            self._mean = max(sum(self.intervals) / len(self.intervals), MIN_INTERVAL_S)
        return self._mean

    def phi(self, now: float) -> float:
        """Current suspicion level (0 = just heard from it)."""
        if self.last_beat is None:
            return 0.0  # never expected a beat yet
        elapsed = max(now - self.last_beat, 0.0)
        return (elapsed / self.mean_interval_s) * _LOG10_E


class HeartbeatMonitor:
    """Cluster-wide heartbeat collection: one phi detector per node.

    Wire-up: nodes (or their SymVirt agents) call :meth:`beat`, or
    :meth:`beat_every` schedules a node's periodic beats; consumers read
    :meth:`phi`.
    """

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.detectors: Dict[str, PhiAccrualFailureDetector] = {
            name: PhiAccrualFailureDetector() for name in cluster.nodes
        }
        #: Per periodically beating node: ``[last beat, next beat, period]``.
        self._schedules: Dict[str, List[float]] = {}
        #: Per node beating on schedule only, its :meth:`phi_ceiling`.
        self._ceilings: Dict[str, float] = {}
        cluster.on_host_failed.append(self._host_failed)

    def beat(self, node: str) -> None:
        """Record one heartbeat from ``node`` (after its scheduled ones)."""
        if node in self._schedules:
            self._catch_up(node)
            self._ceilings.pop(node, None)  # its intervals are irregular now
        self.detectors[node].heartbeat(self.env.now)

    def beat_every(self, node: str, period_s: float) -> None:
        """``node`` beats now and every ``period_s`` after, until it fails."""
        if self.cluster.node(node).failed:
            return
        now = self.env.now
        self.beat(node)
        self._schedules[node] = [now, now + period_s, period_s]
        # Until the schedule ends every interval in the window is an
        # earlier one or about ``period_s``, and so is the mean; a read
        # lies at most one interval after the last beat.
        detector = self.detectors[node]
        floor = min(detector.intervals, default=BOOTSTRAP_INTERVAL_S)
        floor = max(min(floor, period_s), MIN_INTERVAL_S)
        self._ceilings[node] = period_s / floor * _LOG10_E * (1.0 + _CEILING_SLACK)

    def phi(self, node: str) -> float:
        self._catch_up(node)
        return self.detectors[node].phi(self.env.now)

    def phi_ceiling(self, node: str) -> float:
        """An upper bound on :meth:`phi` of ``node`` while it beats on its
        schedule alone (``inf`` once it fails, has no schedule, or gets an
        extra :meth:`beat`).  Phi is never below 0, so a reader that only
        needs to know phi lies in ``[0, phi_ceiling]`` may skip reading it."""
        return self._ceilings.get(node, _INF)

    def _catch_up(self, node: str) -> None:
        """Record every scheduled beat of ``node`` sent by now."""
        schedule = self._schedules.get(node)
        if schedule is None or schedule[1] > self.env.now:
            return
        last, due, period = schedule
        now = self.env.now
        detector = self.detectors[node]
        while due < now or (due == now and self._sent_first(due - last)):
            detector.heartbeat(due)
            last, due = due, due + period
        schedule[0], schedule[1] = last, due

    def _sent_first(self, interval: float) -> bool:
        """Whether a beat due now, armed ``interval`` ago, ran before the
        code now running: it did iff that code is a process woken by a
        timer armed later, i.e. with a shorter delay."""
        process = self.env.active_process
        delay = getattr(process.target, "delay", None) if process is not None else None
        return delay is not None and delay < interval

    def _host_failed(self, node: str) -> None:
        """``node`` died now: it sent the beats due before, and no more."""
        if node in self._schedules:
            self._catch_up(node)
            del self._schedules[node]
            self._ceilings.pop(node, None)
