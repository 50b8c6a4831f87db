"""Streaming telemetry: the sensory input of the incident-response loop.

Three producers feed one :class:`TelemetryBus`:

* :class:`LinkTelemetryProbe` — a periodic sampler over the Ethernet
  fabric's links (goodput, loss, latency, outage flag) and, when wired
  to a :class:`~repro.recovery.failure_detector.HeartbeatMonitor`, every
  node's heartbeat phi.  Under an
  :class:`~repro.incident.manager.IncidentManager` both publish only
  where a detector can act.  A repeated up/loss/latency value is
  withheld while no detector on its stream needs it (all are
  :meth:`~repro.incident.detectors.Detector.idle` at that value), so
  :meth:`TelemetryBus.latest` still holds the current value, only with
  the time it was last published.  A phi is withheld while it lies in
  its host's verdict band (:meth:`~repro.incident.detectors.Detector.idle_band`):
  a settled host's phi below the warn level, a latched one's above the
  clear level — so :meth:`TelemetryBus.latest` holds the last phi that
  moved a verdict, and a silent host publishes at the tick its phi
  first reaches the warn level;
* :class:`TracerBridge` — a live :meth:`~repro.sim.trace.Tracer.subscribe`
  consumer that republishes per-migration round statistics (the raw
  material of the non-convergence detector) without ever re-scanning
  trace history;
* anything else may call :meth:`TelemetryBus.publish` directly.

Operator and sensor warnings (the paper's "ECC errors rising" case) need
no API of their own.  A warning about ``node`` is one infinite-phi
sample published on the incident manager's bus::

    manager.bus.publish(TelemetrySample(
        env.now, HOST_PHI, node, math.inf, {"reason": "ecc-errors"}))

It takes exactly the heartbeat-silence path: the phi-spike detector
alerts, the correlator opens a ``host-failure`` incident, and its
runbook's ``evacuate-host`` step moves the node's live VMs.  A repeated
warning folds into the open incident, or finds the node already empty,
so it adds no second evacuation.

The bus keeps a bounded ring buffer per ``(stream, key)`` series — a
fiber cut must not make the controller's memory grow with outage length
— and fans each sample out to synchronous subscribers (the detectors).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.cluster import Cluster
    from repro.recovery.failure_detector import HeartbeatMonitor
    from repro.sim.trace import TraceRecord, Tracer

#: Stream names published by the built-in producers.
LINK_GOODPUT = "link.goodput_Bps"
LINK_LOSS = "link.loss"
LINK_LATENCY = "link.latency_s"
LINK_UP = "link.up"
HOST_PHI = "host.phi"
MIGRATION_ROUND = "migration.round"

#: The per-link state streams whose unchanged values a manager-owned
#: probe may withhold.
LINK_STATE_STREAMS = (LINK_UP, LINK_LOSS, LINK_LATENCY)


@dataclass(frozen=True)
class TelemetrySample:
    """One observation on one series."""

    time: float
    stream: str  # e.g. "link.goodput_Bps"
    key: str     # series key within the stream (link name, host, vm)
    value: float
    fields: dict = field(default_factory=dict)


class TelemetryBus:
    """Bounded ring buffers per series + synchronous fan-out."""

    #: Samples each series' ring buffer holds.
    CAPACITY = 512

    def __init__(self) -> None:
        self._series: Dict[Tuple[str, str], Deque[TelemetrySample]] = {}
        self._subscribers: List[Callable[[TelemetrySample], None]] = []
        self.published = 0
        #: Samples that pushed an older one out of a full ring buffer.
        self.dropped = 0

    # -- input -------------------------------------------------------------------

    def publish(self, sample: TelemetrySample) -> None:
        ring = self._series.get((sample.stream, sample.key))
        if ring is None:
            ring = deque(maxlen=self.CAPACITY)
            self._series[(sample.stream, sample.key)] = ring
        if len(ring) == self.CAPACITY:
            self.dropped += 1
        ring.append(sample)
        self.published += 1
        for callback in list(self._subscribers):
            callback(sample)

    def subscribe(self, callback: Callable[[TelemetrySample], None]) -> Callable[[], None]:
        """Deliver every future sample to ``callback``; returns unsubscribe."""
        self._subscribers.append(callback)

        def unsubscribe() -> None:
            try:
                self._subscribers.remove(callback)
            except ValueError:
                pass

        return unsubscribe

    # -- queries -----------------------------------------------------------------

    def latest(self, stream: str, key: str) -> Optional[TelemetrySample]:
        ring = self._series.get((stream, key))
        return ring[-1] if ring else None

    def series(self, stream: str, key: str) -> List[TelemetrySample]:
        return list(self._series.get((stream, key), ()))


class LinkTelemetryProbe:
    """Periodic sampler: Ethernet link health + heartbeat phi onto the bus.

    Goodput is the summed rate of in-flight flows crossing each link, so
    idle links publish no goodput sample (an EWMA baseline must not learn
    zeros from silence).  Loss / latency / up are link state, read every
    tick for every link, and phi is read every tick for every node.  A
    standalone probe publishes them all; an
    :class:`~repro.incident.manager.IncidentManager` sets
    :attr:`idle_values` and :attr:`idle_phi`, and then a link-state value
    equal to the one its key is idle at, or a phi inside its host's idle
    band, is withheld — the detectors would do nothing with it.  Goodput
    always publishes.
    """

    def __init__(
        self,
        cluster: "Cluster",
        bus: TelemetryBus,
        heartbeats: Optional["HeartbeatMonitor"] = None,
        period_s: float = 0.25,
    ) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.bus = bus
        self.fabric = cluster.eth_fabric
        self.heartbeats = heartbeats
        self.period_s = period_s
        self.ticks = 0
        #: Per link-state stream, the value at which each key's detectors
        #: are all idle; ``None`` publishes every link-state sample.
        self.idle_values: Optional[Dict[str, Dict[str, float]]] = None
        #: Per host, the phi band ``[lo, hi)`` in which its detectors are
        #: all idle; ``None`` publishes every phi.
        self.idle_phi: Optional[Dict[str, Tuple[float, float]]] = None
        self._proc = None

    def start(self):
        if self._proc is None or not self._proc.is_alive:
            self._proc = self.env.process(self._run(), name="incident.probe")
        return self._proc

    def stop(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("probe stopped")
        self._proc = None

    def _run(self):
        from repro.sim.process import Interrupt

        try:
            while True:
                self.sample_once()
                yield self.env.timeout(self.period_s)
        except Interrupt:
            return

    def sample_once(self) -> int:
        """One sampling pass; returns the number of samples published."""
        now = self.env.now
        samples: List[TelemetrySample] = []
        goodput: Dict[str, float] = {}
        if self.fabric is not None:
            for flow in self.fabric.flows.iter_active():
                for dlink in flow.path:
                    name = dlink.link.name
                    goodput[name] = goodput.get(name, 0.0) + flow.rate_Bps
            if self.idle_values is None:
                idle_up = idle_loss = idle_latency = {}
            else:
                idle_up, idle_loss, idle_latency = (
                    self.idle_values[stream] for stream in LINK_STATE_STREAMS
                )
            for link in self.fabric.topology.links():
                name = link.name
                up = 1.0 if link.up else 0.0
                if idle_up.get(name) != up:
                    samples.append(TelemetrySample(now, LINK_UP, name, up))
                if idle_loss.get(name) != link.loss:
                    samples.append(TelemetrySample(now, LINK_LOSS, name, link.loss))
                if idle_latency.get(name) != link.latency_s:
                    samples.append(
                        TelemetrySample(now, LINK_LATENCY, name, link.latency_s)
                    )
                if name in goodput:
                    samples.append(
                        TelemetrySample(
                            now, LINK_GOODPUT, name, goodput[name],
                            {"capacity_Bps": link.capacity_Bps},
                        )
                    )
        if self.heartbeats is not None:
            bands = self.idle_phi if self.idle_phi is not None else {}
            phi, ceiling = self.heartbeats.phi, self.heartbeats.phi_ceiling
            for node in self.heartbeats.detectors:
                band = bands.get(node)
                if band is None:
                    samples.append(TelemetrySample(now, HOST_PHI, node, phi(node)))
                    continue
                lo, hi = band
                if lo <= 0.0 and ceiling(node) < hi:
                    continue  # phi lies in [0, ceiling]: inside the band, unread
                value = phi(node)
                if not lo <= value < hi:
                    samples.append(TelemetrySample(now, HOST_PHI, node, value))
        for sample in samples:
            self.bus.publish(sample)
        self.ticks += 1
        return len(samples)


class TracerBridge:
    """Republish live trace records as telemetry samples.

    Uses :meth:`Tracer.subscribe` (no history re-scan): ``migration.round``
    records become :data:`MIGRATION_ROUND` samples keyed by VM, carrying
    wire bytes as the value and the round index/pages/duration as fields.
    """

    def __init__(self, tracer: "Tracer", bus: TelemetryBus) -> None:
        self.tracer = tracer
        self.bus = bus
        self._unsubs: List[Callable[[], None]] = []

    def attach(self) -> None:
        if self._unsubs:
            return
        self._unsubs.append(
            self.tracer.subscribe("migration.round", self._on_round)
        )

    def detach(self) -> None:
        for unsub in self._unsubs:
            unsub()
        self._unsubs = []

    def _on_round(self, record: "TraceRecord") -> None:
        vm = str(record.fields.get("vm", "?"))
        self.bus.publish(
            TelemetrySample(
                record.time,
                MIGRATION_ROUND,
                vm,
                float(record.fields.get("wire_bytes", 0.0)),
                {
                    "index": record.fields.get("index"),
                    "pages": record.fields.get("pages"),
                    "seconds": record.fields.get("seconds"),
                },
            )
        )


__all__ = [
    "TelemetrySample",
    "TelemetryBus",
    "LinkTelemetryProbe",
    "TracerBridge",
    "LINK_GOODPUT",
    "LINK_LOSS",
    "LINK_LATENCY",
    "LINK_UP",
    "HOST_PHI",
    "MIGRATION_ROUND",
    "LINK_STATE_STREAMS",
]
