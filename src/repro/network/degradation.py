"""Deterministic network chaos: degrade links mid-migration.

The paper's WAN experiments assume a clean, constant-bandwidth pipe; real
wide-area links sag, drop packets, and occasionally go dark.  This module
perturbs :class:`~repro.network.links.Link` objects on a schedule:

* ``bw``   — bandwidth collapse (capacity × factor),
* ``loss`` — packet loss, mapped to a goodput reduction via the
  deterministic TCP-flavoured model in :func:`repro.network.links.loss_goodput_factor`,
* ``lat``  — additive latency spike,
* ``drop`` — scheduled outage: the link goes down, every in-flight flow
  crossing it fails with :class:`~repro.errors.LinkDownError`, and the link
  comes back after the event's duration.

Events are applied by a simulation process, so a schedule replays
identically on every run; the ``network.chaos`` fault-injection site lets the
:class:`~repro.core.faults.FaultInjector` veto or perturb individual events
in tests.  Each applied event is traced under the ``chaos`` category.

Overlapping events on the same link **compose worst-case**: concurrent
``bw`` factors take the minimum, ``loss``/``lat`` take the maximum, and a
link stays dark while *any* ``drop`` is active.  When one event expires the
link is recomputed from the events still active, so an early revert never
wipes a concurrent degradation (the old behaviour was last-writer-wins).
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.errors import NetworkError
from repro.network.links import Link

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.cluster import Cluster
    from repro.network.fabric import Fabric

KINDS = ("drop", "bw", "loss", "lat")

#: Outage duration when a ``drop`` event gives none (seconds).
DEFAULT_DROP_DURATION_S = 10.0


@dataclass(frozen=True)
class DegradationEvent:
    """One scheduled perturbation.

    ``at_time`` is relative to :meth:`NetworkChaos.start`.  ``duration_s``
    of ``None`` means the degradation persists (except ``drop``, which
    defaults to :data:`DEFAULT_DROP_DURATION_S` so the fabric heals).
    """

    at_time: float
    kind: str  # one of KINDS
    value: float = 0.0  # loss rate, bandwidth factor, or latency seconds
    duration_s: Optional[float] = None
    link_pattern: str = "*"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise NetworkError(
                f"unknown degradation kind {self.kind!r}; expected one of {KINDS}"
            )
        if self.at_time < 0:
            raise NetworkError("degradation event scheduled before t=0")
        if self.duration_s is not None and self.duration_s <= 0:
            raise NetworkError("degradation duration must be positive")
        if self.kind == "loss" and not 0.0 <= self.value < 1.0:
            raise NetworkError(
                f"loss rate must be in [0, 1), got {self.value!r}"
            )
        if self.kind == "bw" and self.value < 0.0:
            raise NetworkError(
                f"bandwidth factor must be >= 0, got {self.value!r}"
            )
        if self.kind == "lat" and self.value < 0.0:
            raise NetworkError(
                f"latency spike must be >= 0 seconds, got {self.value!r}"
            )


@dataclass
class NetworkChaos:
    """Applies a :class:`DegradationEvent` schedule to the Ethernet
    fabric's links."""

    cluster: "Cluster"
    events: Sequence[DegradationEvent] = ()
    fabric: Optional["Fabric"] = field(default=None, init=False)
    #: Links that matched at least one applied event (for cleanup/asserts).
    touched: List[Link] = field(default_factory=list)
    applied: int = 0
    #: Active (applied, not yet reverted) events per link name.
    _active: Dict[str, List[DegradationEvent]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.fabric = self.cluster.eth_fabric
        if self.fabric is None:
            raise NetworkError("NetworkChaos needs a wired fabric")
        self.events = sorted(self.events, key=lambda e: e.at_time)

    # -- schedule ----------------------------------------------------------------

    def start(self):
        """Spawn the chaos process; event times are relative to *now*."""
        return self.cluster.env.process(self._run(), name="network.chaos")

    def _run(self):
        env = self.cluster.env
        t0 = env.now
        for event in self.events:
            delay = t0 + event.at_time - env.now
            if delay > 0:
                yield env.timeout(delay)
            yield from self.cluster.faults.perturb("network.chaos")
            self.apply(event)
            duration = self._duration(event)
            if duration is not None:
                # Revert in a sibling process: a long-lived event must not
                # postpone later events in the schedule (they may overlap).
                env.process(
                    self._revert_later(event, duration),
                    name=f"network.chaos.revert[{event.kind}]",
                )

    def _revert_later(self, event: DegradationEvent, duration: float):
        yield self.cluster.env.timeout(duration)
        self.revert(event)

    @staticmethod
    def _duration(event: DegradationEvent) -> Optional[float]:
        if event.duration_s is not None:
            return event.duration_s
        if event.kind == "drop":
            return DEFAULT_DROP_DURATION_S
        return None

    # -- application -------------------------------------------------------------

    def _match(self, pattern: str) -> List[Link]:
        links = [
            link
            for link in self.fabric.topology.links()
            if fnmatch.fnmatch(link.name, pattern)
        ]
        if not links:
            raise NetworkError(
                f"degradation pattern {pattern!r} matches no link on "
                f"fabric {self.fabric.name!r}"
            )
        return links

    @staticmethod
    def _any_drop(active: List[DegradationEvent]) -> bool:
        return any(e.kind == "drop" for e in active)

    def _recompose(self, link: Link) -> None:
        """Recompute a link's degradation from its active non-drop events.

        Worst case across concurrent events: minimum bandwidth factor,
        maximum loss rate, maximum latency spike.
        """
        active = self._active.get(link.name, ())
        bw = min((e.value for e in active if e.kind == "bw"), default=1.0)
        loss = max((e.value for e in active if e.kind == "loss"), default=0.0)
        lat = max((e.value for e in active if e.kind == "lat"), default=0.0)
        if bw >= 1.0 and loss <= 0.0 and lat <= 0.0:
            link.clear_degradation()
        else:
            link.set_degradation(
                bandwidth_factor=bw, loss=loss, extra_latency_s=lat
            )

    def apply(self, event: DegradationEvent) -> List[Link]:
        """Apply one event immediately; returns the links it hit."""
        links = self._match(event.link_pattern)
        for link in links:
            active = self._active.setdefault(link.name, [])
            was_down = self._any_drop(active)
            active.append(event)
            if event.kind == "drop":
                killed = 0
                if not was_down:
                    link.fail()
                    self.fabric.topology.invalidate_routes()
                    killed = self.fabric.flows.fail_flows_on(link)
                self._trace("drop", link, killed_flows=killed)
            else:
                self._recompose(link)
                if event.kind == "bw":
                    self._trace("bw", link, factor=event.value)
                elif event.kind == "loss":
                    self._trace("loss", link, loss=event.value)
                else:  # lat
                    self._trace("lat", link, extra_s=event.value)
            if link not in self.touched:
                self.touched.append(link)
        if event.kind != "drop":
            self.fabric.flows.recompute()
        self.applied += 1
        return links

    def revert(self, event: DegradationEvent) -> None:
        """Undo one event, keeping whatever other events are still active."""
        for link in self._match(event.link_pattern):
            active = self._active.get(link.name, [])
            if event in active:
                active.remove(event)
            if event.kind == "drop":
                if self._any_drop(active):
                    # Another outage still holds this link down.
                    self._trace("hold", link, reason="overlapping-drop")
                elif not link.up:
                    link.restore()
                    self.fabric.topology.invalidate_routes()
                    self._trace("restore", link)
            else:
                self._recompose(link)
                self._trace("clear", link, remaining=len(active))
        self.fabric.flows.recompute()

    def _trace(self, action: str, link: Link, **fields) -> None:
        self.cluster.trace(
            "chaos",
            action,
            link=link.name,
            capacity_Bps=link.capacity_Bps,
            **fields,
        )


def parse_degrade_spec(
    spec: str, link_pattern: str = "*"
) -> List[DegradationEvent]:
    """Parse a CLI ``--degrade`` schedule into events.

    Grammar (comma-separated tokens)::

        drop@t=5          outage at t=5 (default 10 s)
        drop@t=5+2        outage at t=5 lasting 2 s
        loss=0.2@t=2      20 % packet loss from t=2 onward
        bw=0.1@t=3+30     bandwidth collapse to 10 % for 30 s
        lat=0.05@t=1      +50 ms latency from t=1 onward

    Times are relative to :meth:`NetworkChaos.start`.  Malformed tokens —
    unknown kinds, a value on ``drop``, a missing value on ``bw``/``loss``/
    ``lat``, unparsable or out-of-range numbers — raise
    :class:`~repro.errors.NetworkError` naming the offending token.
    """
    tokens = [t.strip() for t in spec.split(",") if t.strip()]
    if not tokens:
        raise NetworkError(f"empty --degrade spec {spec!r}")
    events: List[DegradationEvent] = []
    for token in tokens:
        try:
            if "@" not in token:
                raise ValueError("expected '@t=<time>' (e.g. 'drop@t=5')")
            head, at_part = token.split("@", 1)
            if not at_part.startswith("t="):
                raise ValueError("expected '@t=<time>', got '@" + at_part + "'")
            time_part = at_part[2:]
            duration: Optional[float] = None
            if "+" in time_part:
                time_str, dur_str = time_part.split("+", 1)
                duration = _parse_float(dur_str, "duration")
            else:
                time_str = time_part
            at_time = _parse_float(time_str, "time")
            if "=" in head:
                kind, value_str = head.split("=", 1)
                if kind == "drop":
                    raise ValueError("'drop' takes no value (use 'drop@t=T[+D]')")
                value = _parse_float(value_str, f"{kind} value")
            else:
                kind, value = head, 0.0
                if kind in ("bw", "loss", "lat"):
                    raise ValueError(
                        f"{kind!r} requires a value (e.g. '{kind}=0.5@t=2')"
                    )
            event = DegradationEvent(
                at_time=at_time,
                kind=kind,
                value=value,
                duration_s=duration,
                link_pattern=link_pattern,
            )
        except (ValueError, NetworkError) as err:
            raise NetworkError(
                f"bad --degrade token {token!r}: {err}"
            ) from err
        events.append(event)
    return events


def _parse_float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"bad {what} {text!r} (not a number)") from None


def chaos_from_spec(
    cluster: "Cluster",
    spec: str,
    link_pattern: str = "*",
) -> NetworkChaos:
    """Build a :class:`NetworkChaos` from a CLI spec string."""
    return NetworkChaos(
        cluster=cluster, events=parse_degrade_spec(spec, link_pattern=link_pattern)
    )


__all__ = [
    "DegradationEvent",
    "NetworkChaos",
    "parse_degrade_spec",
    "chaos_from_spec",
    "DEFAULT_DROP_DURATION_S",
]
