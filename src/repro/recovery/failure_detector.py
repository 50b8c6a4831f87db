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
suspicion threshold (``warn_phi``): a spike opens a ``host-failure``
incident whose runbook evacuates live VMs and restores dead ones from
their last committed checkpoint.

We use the exponential-interarrival variant: with mean heartbeat
interval ``m`` and ``Δt`` since the last beat, the probability the node
is still alive is ``exp(-Δt/m)``, giving

    phi(Δt) = -log10(P_later) = (Δt / m) · log10(e)

so ``phi = 8`` means "the chance this silence is benign is 1e-8".  A
resumed heartbeat drops phi to ~0 — suspicion, unlike a tripped
timeout, is reversible.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.cluster import Cluster

#: log10(e): converts nats of suspicion into phi's base-10 scale.
_LOG10_E = math.log10(math.e)


class PhiAccrualFailureDetector:
    """Suspicion level for one heartbeat stream."""

    def __init__(
        self,
        window: int = 64,
        bootstrap_interval_s: float = 1.0,
        min_interval_s: float = 1e-3,
    ) -> None:
        #: Sliding window of observed inter-arrival times.
        self.intervals: Deque[float] = deque(maxlen=window)
        #: Assumed mean interval until enough beats arrive.
        self.bootstrap_interval_s = bootstrap_interval_s
        #: Floor on the mean (guards against a burst collapsing it to 0).
        self.min_interval_s = min_interval_s
        self.last_beat: Optional[float] = None
        self.beats = 0

    def heartbeat(self, now: float) -> None:
        if self.last_beat is not None:
            self.intervals.append(max(now - self.last_beat, 0.0))
        self.last_beat = now
        self.beats += 1

    @property
    def mean_interval_s(self) -> float:
        if not self.intervals:
            return self.bootstrap_interval_s
        return max(
            sum(self.intervals) / len(self.intervals), self.min_interval_s
        )

    def phi(self, now: float) -> float:
        """Current suspicion level (0 = just heard from it)."""
        if self.last_beat is None:
            return 0.0  # never expected a beat yet
        elapsed = max(now - self.last_beat, 0.0)
        return (elapsed / self.mean_interval_s) * _LOG10_E


class HeartbeatMonitor:
    """Cluster-wide heartbeat collection: one phi detector per node.

    Wire-up: nodes (or their SymVirt agents) call :meth:`beat`, or run
    :meth:`emit_heartbeats` as a process; consumers read :meth:`phi`.
    """

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.detectors: Dict[str, PhiAccrualFailureDetector] = {
            name: PhiAccrualFailureDetector() for name in cluster.nodes
        }

    def beat(self, node: str) -> None:
        """Record one heartbeat from ``node``."""
        self.detectors[node].heartbeat(self.env.now)

    def emit_heartbeats(self, node: str, period_s: float, count: int = 10**9):
        """Generator: a node's heartbeat loop (run as a process; kill the
        process — or bound ``count`` — to simulate the node going silent).

        A host marked failed (:meth:`~repro.hardware.cluster.Cluster.fail_host`)
        goes silent at its next beat — nobody is left to run the agent."""
        for _ in range(count):
            if self.cluster.node(node).failed:
                return
            self.beat(node)
            yield self.env.timeout(period_s)

    def phi(self, node: str) -> float:
        return self.detectors[node].phi(self.env.now)
