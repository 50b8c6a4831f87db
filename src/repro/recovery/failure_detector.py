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
#: Inter-arrival times a detector remembers.
WINDOW = 64
#: Assumed mean interval until the first two beats arrive.
BOOTSTRAP_INTERVAL_S = 1.0
#: Floor on the mean interval (guards against a burst collapsing it to 0).
MIN_INTERVAL_S = 1e-3


class PhiAccrualFailureDetector:
    """Suspicion level for one heartbeat stream."""

    def __init__(self) -> None:
        #: Sliding window of observed inter-arrival times.
        self.intervals: Deque[float] = deque(maxlen=WINDOW)
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
            return BOOTSTRAP_INTERVAL_S
        return max(sum(self.intervals) / len(self.intervals), MIN_INTERVAL_S)

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

    def emit_heartbeats(self, node: str, period_s: float):
        """Generator: a node's heartbeat loop (run as a process; kill the
        process to simulate the node going silent).

        A host marked failed (:meth:`~repro.hardware.cluster.Cluster.fail_host`)
        goes silent at its next beat — nobody is left to run the agent."""
        while not self.cluster.node(node).failed:
            self.beat(node)
            yield self.env.timeout(period_s)

    def phi(self, node: str) -> float:
        return self.detectors[node].phi(self.env.now)
