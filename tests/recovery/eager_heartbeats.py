"""The heartbeat loop as a process: one timer per beat, per node.

:meth:`repro.recovery.failure_detector.HeartbeatMonitor.beat_every`
schedules a node's periodic beats and catches them up when phi is read.
:func:`emit_heartbeats` is how a node beat before that: a process that
beats, sleeps one period and beats again until its host fails (or the
process is cut short).  Its beats land on the same instants, computed by
the same repeated addition, and a kill or a read at a beat instant is
ordered against the beat by the event queue itself — the behaviour the
lazy schedule must reproduce.  Tests drive both and compare them under
``==``.
"""

from __future__ import annotations

from repro.recovery.failure_detector import HeartbeatMonitor


def emit_heartbeats(monitor: HeartbeatMonitor, node: str, period_s: float):
    """Generator: ``node``'s heartbeat loop, run as a process.

    A host marked failed (:meth:`~repro.hardware.cluster.Cluster.fail_host`)
    goes silent at its next beat — nobody is left to run the agent."""
    while not monitor.cluster.node(node).failed:
        monitor.beat(node)
        yield monitor.env.timeout(period_s)


def eager_mesh(cluster, period_s: float) -> HeartbeatMonitor:
    """A monitor whose nodes each run :func:`emit_heartbeats`."""
    monitor = HeartbeatMonitor(cluster)
    for node in cluster.nodes:
        cluster.env.process(
            emit_heartbeats(monitor, node, period_s), name=f"heartbeat.{node}"
        )
    return monitor
