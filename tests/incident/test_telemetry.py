"""TelemetryBus ring buffers, probe sampling, and the tracer bridge."""

from __future__ import annotations

from repro.hardware.cluster import Cluster
from repro.incident.telemetry import (
    HOST_PHI,
    LINK_GOODPUT,
    LINK_UP,
    MIGRATION_ROUND,
    LinkTelemetryProbe,
    TelemetryBus,
    TelemetrySample,
    TracerBridge,
)
from repro.incident.manager import IncidentManager
from repro.orchestrator import FleetOrchestrator
from repro.recovery.failure_detector import HeartbeatMonitor
from repro.units import gbps


def _keys(bus, stream):
    """Keys that have samples on ``stream``."""
    return sorted(key for st, key in bus._series if st == stream)


def _sample(t, stream="link.up", key="wan", value=1.0):
    return TelemetrySample(t, stream, key, value)


class TestTelemetryBus:
    def test_ring_buffer_is_bounded(self):
        bus = TelemetryBus()
        n = TelemetryBus.CAPACITY + 1
        for i in range(n):
            bus.publish(_sample(float(i), value=float(i)))
        series = bus.series("link.up", "wan")
        assert len(series) == TelemetryBus.CAPACITY
        assert series[0].value == 1.0 and series[-1].value == float(n - 1)
        assert bus.published == n
        assert bus.dropped == 1

    def test_latest(self):
        bus = TelemetryBus()
        for i in range(5):
            bus.publish(_sample(float(i), value=float(i)))
        assert bus.latest("link.up", "wan").value == 4.0
        assert bus.latest("link.up", "nope") is None

    def test_subscribe_and_unsubscribe(self):
        bus = TelemetryBus()
        seen = []
        unsub = bus.subscribe(seen.append)
        bus.publish(_sample(1.0))
        unsub()
        bus.publish(_sample(2.0))
        assert [s.time for s in seen] == [1.0]
        unsub()  # idempotent


def _tiny_cluster():
    cluster = Cluster()
    for name in ("n1", "n2", "n3"):
        cluster.add_node(name)
    cluster.wire_ethernet(
        sites={"primary": ["n1", "n2"], "backup": ["n3"]},
        wan_bandwidth_Bps=gbps(1.0),
    )
    return cluster


class TestLinkTelemetryProbe:
    def test_samples_every_link_state(self):
        cluster = _tiny_cluster()
        bus = TelemetryBus()
        probe = LinkTelemetryProbe(cluster, bus)
        published = probe.sample_once()
        link_names = {link.name for link in cluster.eth_fabric.topology.links()}
        assert published > 0
        assert set(_keys(bus, LINK_UP)) == link_names
        # No flows in flight: goodput must not learn zeros from silence.
        assert _keys(bus, LINK_GOODPUT) == []

    def test_outage_flag_follows_link_state(self):
        cluster = _tiny_cluster()
        bus = TelemetryBus()
        probe = LinkTelemetryProbe(cluster, bus)
        wan = next(
            link
            for link in cluster.eth_fabric.topology.links()
            if link.name.startswith("wan:")
        )
        probe.sample_once()
        assert bus.latest(LINK_UP, wan.name).value == 1.0
        wan.fail()
        probe.sample_once()
        assert bus.latest(LINK_UP, wan.name).value == 0.0

    def test_periodic_process_and_stop(self):
        cluster = _tiny_cluster()
        bus = TelemetryBus()
        probe = LinkTelemetryProbe(cluster, bus, period_s=0.5)
        probe.start()
        cluster.env.run(until=2.1)
        assert probe.ticks >= 4
        probe.stop()
        ticks = probe.ticks
        cluster.env.run(until=4.0)
        assert probe.ticks == ticks

    def test_phi_published_when_wired_to_heartbeats(self):
        cluster = _tiny_cluster()
        monitor = HeartbeatMonitor(cluster)
        env = cluster.env
        monitor.beat_every("n1", 0.5)
        bus = TelemetryBus()
        probe = LinkTelemetryProbe(cluster, bus, heartbeats=monitor)
        probe.start()
        env.run(until=5.0)
        assert set(_keys(bus, HOST_PHI)) == set(cluster.nodes)
        assert bus.latest(HOST_PHI, "n1").value < 1.0  # beating healthily


class TestChangeDrivenLinkState:
    """Under an incident manager, link state publishes on change."""

    def test_repeats_withheld_but_latest_stays_current(self):
        cluster = _tiny_cluster()
        manager = IncidentManager(cluster, FleetOrchestrator(cluster)).start()
        probe, bus = manager.probe, manager.bus
        links = cluster.eth_fabric.topology.links()
        assert probe.sample_once() == 3 * len(links)
        # Past the latency baseline's warm-up, nothing changed and every
        # detector is idle: nothing to publish.
        cluster.env.run(until=1.0)
        first = bus.published
        assert probe.sample_once() == 0 and bus.published == first
        wan = next(link for link in links if link.name.startswith("wan:"))
        wan.fail()
        assert probe.sample_once() == 1
        assert bus.latest(LINK_UP, wan.name).value == 0.0
        # Still dark: the latched outage episode needs no repeat.
        assert probe.sample_once() == 0
        assert bus.latest(LINK_UP, wan.name).value == 0.0
        manager.stop()

    def test_standalone_probe_publishes_every_tick(self):
        cluster = _tiny_cluster()
        probe = LinkTelemetryProbe(cluster, TelemetryBus())
        links = cluster.eth_fabric.topology.links()
        assert probe.sample_once() == probe.sample_once() == 3 * len(links)


class TestTracerBridge:
    def test_republishes_round_records(self):
        cluster = _tiny_cluster()
        bus = TelemetryBus()
        bridge = TracerBridge(cluster.tracer, bus)
        bridge.attach()
        cluster.tracer.emit(
            1.0, "migration", "round",
            vm="j0-vm0", index=1, pages=100, wire_bytes=4096, seconds=0.5,
        )
        sample = bus.latest(MIGRATION_ROUND, "j0-vm0")
        assert sample is not None
        assert sample.value == 4096.0
        assert sample.fields["index"] == 1

    def test_detach_stops_and_other_events_ignored(self):
        cluster = _tiny_cluster()
        bus = TelemetryBus()
        bridge = TracerBridge(cluster.tracer, bus)
        bridge.attach()
        bridge.attach()  # idempotent
        cluster.tracer.emit(1.0, "migration", "auto_converge", vm="v", throttle=20)
        assert bus.published == 0
        bridge.detach()
        cluster.tracer.emit(2.0, "migration", "round", vm="v", wire_bytes=1)
        assert bus.published == 0
