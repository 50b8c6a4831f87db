"""Guest network interface registry (what ``ip link`` would show)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.fabric import Port
    from repro.guestos.drivers import Driver


@dataclass
class NetInterface:
    """One guest-visible network interface."""

    name: str            # "ib0", "eth0"
    kind: str            # "infiniband" | "ethernet"
    driver: "Driver"
    #: The fabric port carrying this interface's traffic.
    port: Optional["Port"] = None

    @property
    def is_up(self) -> bool:
        """Link state as the guest sees it."""
        return self.driver.link_up

    def __repr__(self) -> str:  # pragma: no cover
        state = "UP" if self.is_up else "DOWN"
        return f"<NetInterface {self.name} {state}>"
