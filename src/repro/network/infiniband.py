"""InfiniBand fabric: subnet manager, LIDs, queue pairs, port link-up.

The model reproduces the behaviour the paper measures and discusses:

* after a hot-attach the HCA port sits in **POLLING for ≈ 30 s** before the
  subnet manager brings it ACTIVE ("the link-up time takes about
  30 seconds.  This is not a negligible overhead" — Section V);
* **LIDs and queue-pair numbers change across a re-attach** — which is why
  the paper relies on Open MPI rebuilding all connections instead of
  virtualizing those identifiers the way Nomad does (Section VI);
* the data path is VMM-bypass: transfers consume **no host CPU** and run at
  near line rate, which is why normal operation shows zero overhead.
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING, Dict, Optional

from repro.errors import LinkDownError, NetworkError
from repro.network.fabric import Fabric, Port, PortState
from repro.network.flows import Flow
from repro.network.topology import Topology
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment
    from repro.sim.rng import RngRegistry
    from repro.sim.trace import Tracer
    from repro.hardware.calibration import Calibration


class SubnetManager:
    """Assigns LIDs and activates ports after their link-up delay.

    A real SM sweeps the subnet periodically; here each plug event gets its
    own activation timer whose duration is the calibrated link-up time
    (~29.85 s, Table II) with optional per-port jitter.
    """

    def __init__(
        self,
        fabric: "InfiniBandFabric",
        linkup_s: float,
        rng: Optional["RngRegistry"] = None,
        jitter: float = 0.0,
    ) -> None:
        self.fabric = fabric
        self.linkup_s = linkup_s
        self.rng = rng
        self.jitter = jitter
        self._next_lid = count(1)
        self.activations = 0

    def next_lid(self) -> int:
        """LIDs are never reused — re-attached ports get fresh addresses."""
        return next(self._next_lid)

    def linkup_delay(self, port_name: str) -> float:
        if self.rng is None or self.jitter <= 0.0:
            return self.linkup_s
        return self.rng.jitter(f"ib.linkup.{port_name}", self.linkup_s, self.jitter)

    def activate_later(self, port: Port) -> Event:
        """Schedule POLLING→ACTIVE after the link-up delay."""
        delay = self.linkup_delay(port.name)
        timer = self.fabric.env.timeout(delay)

        def _activate(_event: Event) -> None:
            # The port may have been unplugged while polling.
            if port.state is PortState.POLLING:
                port.address = self.next_lid()
                self.activations += 1
                port._set_state(PortState.ACTIVE)

        timer.callbacks.append(_activate)
        return port.wait_active()


class QueuePair:
    """A reliable-connected IB queue pair between two ACTIVE ports.

    QP numbers are allocated per HCA attach epoch; after a detach/attach
    cycle every previously created QP is invalid (``alive == False``) and
    upper layers must re-establish connections — precisely the property the
    BTL reconstruction relies on.
    """

    _qpn = count(0x100)

    def __init__(self, fabric: "InfiniBandFabric", local: Port, remote: Port) -> None:
        self.fabric = fabric
        self.local = local
        self.remote = remote
        self.qpn = next(QueuePair._qpn)
        self.local_lid = local.address
        self.remote_lid = remote.address
        self.alive = True

    def _check(self) -> None:
        if not self.alive:
            raise LinkDownError(f"QP {self.qpn:#x} was torn down")
        for port in (self.local, self.remote):
            if port.state is not PortState.ACTIVE:
                raise LinkDownError(f"QP {self.qpn:#x}: port {port.name} inactive")
        # LID changes (new attach epoch) invalidate cached QPs.
        if self.local.address != self.local_lid or self.remote.address != self.remote_lid:
            self.alive = False
            raise LinkDownError(f"QP {self.qpn:#x}: stale LIDs after re-attach")

    def post_send(self, nbytes: float, label: str = "") -> Flow:
        """RC SEND of ``nbytes`` (bulk, bandwidth-dominated)."""
        self._check()
        return self.fabric.transfer(self.local, self.remote, nbytes, label=label or f"qp{self.qpn:#x}")

    def rdma_read(self, nbytes: float, label: str = "") -> Flow:
        """RDMA READ — data flows remote→local."""
        self._check()
        return self.fabric.transfer(self.remote, self.local, nbytes, label=label or f"qp{self.qpn:#x}.r")

    def destroy(self) -> None:
        self.alive = False


class InfiniBandFabric(Fabric):
    """One IB subnet (a Mellanox M3601Q blade switch plus cables)."""

    kind = "infiniband"

    def __init__(
        self,
        env: "Environment",
        name: str,
        calibration: "Calibration",
        topology: Optional[Topology] = None,
        tracer: Optional["Tracer"] = None,
        rng: Optional["RngRegistry"] = None,
        linkup_jitter: float = 0.0,
    ) -> None:
        super().__init__(env, name, topology, tracer)
        self.calibration = calibration
        self.sm = SubnetManager(self, calibration.ib_linkup_s, rng=rng, jitter=linkup_jitter)
        self._qps: list[QueuePair] = []

    # -- port lifecycle -----------------------------------------------------------

    def _assign_address(self, port: Port) -> int:
        return self.sm.next_lid()

    def plug(self, port: Port) -> Event:
        """Hot-attach: the port trains to POLLING, then waits for the SM.

        Returns the event firing when the port is ACTIVE.
        """
        if port.state is not PortState.DOWN:
            raise NetworkError(f"{self.name}: port {port.name} already plugged")
        port._set_state(PortState.POLLING)
        return self.sm.activate_later(port)

    def unplug(self, port: Port) -> None:
        """Hot-detach: invalidate QPs touching this port, then go DOWN."""
        for qp in self._qps:
            if qp.alive and (qp.local is port or qp.remote is port):
                qp.alive = False
        super().unplug(port)

    # -- verbs ----------------------------------------------------------------------

    def create_qp(self, local: Port, remote: Port) -> QueuePair:
        """Create an RC queue pair (both ports must be ACTIVE)."""
        for port in (local, remote):
            if port.state is not PortState.ACTIVE:
                raise LinkDownError(
                    f"{self.name}: cannot create QP, port {port.name} is {port.state.value}"
                )
        qp = QueuePair(self, local, remote)
        self._qps.append(qp)
        return qp
