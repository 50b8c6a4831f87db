"""Fabric base: ports, attachment, and bulk transfers.

A *fabric* is one interconnect domain (the IB subnet, the Ethernet
broadcast domain).  Devices attach through :class:`Port` objects whose
state machine gates traffic — this is where the paper's 30-second
InfiniBand link-up lives (see :mod:`repro.network.infiniband`).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.errors import LinkDownError, NetworkError
from repro.network.flows import Flow, FlowNetwork
from repro.network.topology import Topology
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment
    from repro.hardware.devices import NetworkDevice
    from repro.sim.trace import Tracer


class PortState(enum.Enum):
    """Generic port operational states (IB adds its own sub-states)."""

    DOWN = "down"
    POLLING = "polling"  # physically connected, training/waiting for SM
    ACTIVE = "active"


class Port:
    """A fabric attachment point for one device PHY."""

    def __init__(self, fabric: "Fabric", name: str) -> None:
        self.fabric = fabric
        self.name = name
        self.state = PortState.DOWN
        self.device: Optional["NetworkDevice"] = None
        #: Fabric-assigned address (LID for IB, MAC-learned port for Eth).
        self.address: Optional[Any] = None
        self._active_waiters: list[Event] = []

    @property
    def env(self) -> "Environment":
        return self.fabric.env

    def wait_active(self) -> Event:
        """Event firing when the port reaches ACTIVE (immediately if it is)."""
        event = Event(self.env)
        if self.state is PortState.ACTIVE:
            event.succeed(self)
        else:
            self._active_waiters.append(event)
        return event

    def _set_state(self, state: PortState) -> None:
        self.state = state
        self.fabric.trace("port", f"{self.name}:{state.value}")
        if state is PortState.ACTIVE:
            waiters, self._active_waiters = self._active_waiters, []
            for event in waiters:
                event.succeed(self)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Port {self.name} {self.state.value}>"


class Fabric:
    """Base interconnect: a topology + a flow engine + managed ports."""

    kind = "generic"

    def __init__(
        self,
        env: "Environment",
        name: str,
        topology: Optional[Topology] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.env = env
        self.name = name
        self.topology = topology if topology is not None else Topology(name)
        self.flows = FlowNetwork(env, name=f"{name}.flows")
        self.tracer = tracer
        self._ports: Dict[str, Port] = {}

    # -- tracing ---------------------------------------------------------------

    def trace(self, event: str, detail: str = "", **fields: Any) -> None:
        if self.tracer is not None:
            self.tracer.emit(self.env.now, f"fabric.{self.name}", event, detail=detail, **fields)

    # -- ports -----------------------------------------------------------------

    def port(self, name: str) -> Port:
        try:
            return self._ports[name]
        except KeyError:
            raise NetworkError(f"{self.name}: unknown port {name!r}") from None

    def create_port(self, name: str) -> Port:
        """Declare an attachment point (cabling exists; nothing plugged)."""
        if name in self._ports:
            raise NetworkError(f"{self.name}: port {name!r} already exists")
        if not self.topology.has(name):
            raise NetworkError(f"{self.name}: no topology endpoint {name!r}")
        port = Port(self, name)
        self._ports[name] = port
        return port

    def plug(self, port: Port) -> Event:
        """A device PHY came up on ``port``; returns the ACTIVE event.

        Subclasses define the link-training/management delay.
        """
        raise NotImplementedError

    def unplug(self, port: Port) -> None:
        """The device PHY went away (hot-detach); port returns to DOWN."""
        port.address = None
        port._set_state(PortState.DOWN)

    def _assign_address(self, port: Port) -> Any:
        """Allocate a fabric address for an activating port."""
        raise NotImplementedError

    def force_active(self, port: Port) -> None:
        """Bring a port ACTIVE immediately (warm-start for experiments).

        Experiments that begin in "normal operation" use this to skip the
        initial boot-time link training, which the paper does not count.
        """
        if port.address is None:
            port.address = self._assign_address(port)
        port._set_state(PortState.ACTIVE)

    # -- transfers ---------------------------------------------------------------

    def transfer(
        self,
        src: Port,
        dst: Port,
        nbytes: float,
        cap_Bps: float = float("inf"),
        label: str = "",
    ) -> Flow:
        """Move ``nbytes`` from ``src`` to ``dst``; returns the flow.

        Both ports must be ACTIVE.  Propagation latency is not included —
        callers that care (small messages) add ``path_latency`` themselves;
        bulk transfers are bandwidth-dominated.
        """
        for port in (src, dst):
            if port.state is not PortState.ACTIVE:
                raise LinkDownError(
                    f"{self.name}: port {port.name} is {port.state.value}"
                )
        path = self.topology.path(src.name, dst.name)
        return self.flows.start(path, nbytes, cap_Bps=cap_Bps, label=label)

    def latency(self, src: Port, dst: Port) -> float:
        """One-way propagation latency between two ports."""
        return self.topology.path_latency(src.name, dst.name)
