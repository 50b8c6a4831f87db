"""Physical links: full-duplex capacity + propagation latency."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Optional

from repro.errors import NetworkError

_link_ids = count()

#: Loss multiplier used by :func:`loss_goodput_factor`.  Deterministic
#: TCP-flavoured penalty: goodput = capacity · (1-p) / (1 + PENALTY·p).
#: p=0.02 → ~0.83×, p=0.2 → ~0.29×, p=0.5 → ~0.09× — severe enough to model
#: retransmission storms without a packet-level simulation.
LOSS_PENALTY = 9.0


def loss_goodput_factor(loss: float) -> float:
    """Fraction of raw capacity surviving a packet-loss rate ``loss``."""
    if not 0.0 <= loss < 1.0:
        raise NetworkError(f"loss rate must be in [0, 1), got {loss}")
    return (1.0 - loss) / (1.0 + LOSS_PENALTY * loss)


@dataclass(eq=False)
class Link:
    """A full-duplex cable/backplane trace between two topology nodes.

    Capacity applies independently per direction; latency is one-way
    propagation plus per-hop switching delay.

    Degradation (chaos injection) is layered on top of the pristine
    ``base_capacity_Bps``/``base_latency_s`` captured at construction:
    :meth:`set_degradation` recomputes the effective ``capacity_Bps`` and
    ``latency_s`` from a bandwidth factor, a packet-loss rate (converted to
    a goodput factor), and an additive latency term.
    """

    name: str
    capacity_Bps: float
    latency_s: float = 0.0
    link_id: int = field(default_factory=lambda: next(_link_ids))
    #: Operational state; transfers over a down link fail.
    up: bool = True

    def __post_init__(self) -> None:
        if self.capacity_Bps <= 0:
            raise NetworkError(f"link {self.name}: capacity must be positive")
        if self.latency_s < 0:
            raise NetworkError(f"link {self.name}: negative latency")
        #: Pristine values; ``set_degradation`` derives effective ones.
        self.base_capacity_Bps = self.capacity_Bps
        self.base_latency_s = self.latency_s
        self.bandwidth_factor = 1.0
        self.loss = 0.0
        self.extra_latency_s = 0.0
        #: The two interned directed views: ``DirectedLink(self, d)``.
        self.directed = DirectedLink._pair(self)

    def fail(self) -> None:
        """Take the link down (fault injection)."""
        self.up = False

    def restore(self) -> None:
        """Bring the link back up."""
        self.up = True

    # -- degradation -----------------------------------------------------------

    def set_degradation(
        self,
        bandwidth_factor: Optional[float] = None,
        loss: Optional[float] = None,
        extra_latency_s: Optional[float] = None,
    ) -> None:
        """Apply/adjust degradation; unspecified dimensions keep their value.

        Effective capacity never drops below 1 B/s — a degraded link crawls,
        it does not silently deadlock the flow engine.
        """
        if bandwidth_factor is not None:
            if bandwidth_factor < 0:
                raise NetworkError(f"link {self.name}: negative bandwidth factor")
            self.bandwidth_factor = bandwidth_factor
        if loss is not None:
            loss_goodput_factor(loss)  # validate range
            self.loss = loss
        if extra_latency_s is not None:
            if extra_latency_s < 0:
                raise NetworkError(f"link {self.name}: negative extra latency")
            self.extra_latency_s = extra_latency_s
        self.capacity_Bps = max(
            self.base_capacity_Bps
            * self.bandwidth_factor
            * loss_goodput_factor(self.loss),
            1.0,
        )
        self.latency_s = self.base_latency_s + self.extra_latency_s

    def clear_degradation(self) -> None:
        """Restore pristine capacity/latency."""
        self.bandwidth_factor = 1.0
        self.loss = 0.0
        self.extra_latency_s = 0.0
        self.capacity_Bps = self.base_capacity_Bps
        self.latency_s = self.base_latency_s

    @property
    def degraded(self) -> bool:
        return (
            self.bandwidth_factor != 1.0
            or self.loss != 0.0
            or self.extra_latency_s != 0.0
        )

    def __hash__(self) -> int:
        return self.link_id

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Link {self.name} {self.capacity_Bps/1e9*8:.0f}Gbps>"


class DirectedLink:
    """One direction of a :class:`Link` (the unit of capacity sharing).

    Interned: each link builds its two directed views once, and
    ``DirectedLink(link, d)`` returns the stored ``link.directed[d]``.
    Identity is therefore equality, and directed links hash by identity.
    """

    __slots__ = ("link", "direction")

    link: Link
    #: 0 = topology order (a→b), 1 = reverse.
    direction: int

    def __new__(cls, link: Link, direction: int) -> DirectedLink:
        return link.directed[direction]

    @classmethod
    def _pair(cls, link: Link) -> tuple[DirectedLink, DirectedLink]:
        """Build ``link``'s two directed views (called once, by the link)."""
        pair = (object.__new__(cls), object.__new__(cls))
        for direction, dlink in enumerate(pair):
            dlink.link = link
            dlink.direction = direction
        return pair

    @property
    def capacity_Bps(self) -> float:
        return self.link.capacity_Bps

    @property
    def up(self) -> bool:
        return self.link.up

    def __repr__(self) -> str:
        return f"<DirectedLink {self.link.name}/{self.direction}>"
