"""The ``openib`` BTL: MPI over VMM-bypass InfiniBand verbs.

Exclusivity 1024 (Section III-C) — preferred over tcp whenever both ends
have an ACTIVE IB port.  Queue pairs are created lazily per peer and die
with the HCA on hot-detach; reconstruction after a migration re-creates
them against the (possibly new) LIDs, which is why the paper needs no
Nomad-style LID/QPN virtualization.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.errors import BtlUnreachableError, LinkDownError, NetworkError
from repro.mpi.btl.base import Btl, DEFAULT_REGISTRY
from repro.network.fabric import PortState

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.runtime import MpiProcess
    from repro.mpi.datatypes import Message
    from repro.network.infiniband import InfiniBandFabric, QueuePair


def _active_ib_port(proc: "MpiProcess"):
    """The proc's guest IB port when the interface is fully up."""
    kernel = proc.vm.kernel
    if kernel is None:
        return None
    iface = kernel.ib_interface()
    if iface is None or not iface.is_up:
        return None
    port = iface.driver.port
    if port is None or port.state is not PortState.ACTIVE:
        return None
    return port


@DEFAULT_REGISTRY.register
class OpenIbBtl(Btl):
    """InfiniBand verbs transport."""

    name = "openib"
    exclusivity = 1024

    def __init__(self, proc: "MpiProcess") -> None:
        super().__init__(proc)
        self._qps: Dict[int, "QueuePair"] = {}
        #: Peers whose RC QPs entered the error state (transport retry
        #: count exceeded, e.g. a failed cable); selection falls through
        #: to lower-exclusivity modules for these peers.
        self._broken_peers: set[int] = set()

    @classmethod
    def usable(cls, proc: "MpiProcess") -> bool:
        return _active_ib_port(proc) is not None

    def reaches(self, peer: "MpiProcess") -> bool:
        if peer.vm is self.proc.vm:
            return False  # sm handles co-located ranks
        if peer.rank in self._broken_peers:
            return False
        local = _active_ib_port(self.proc)
        remote = _active_ib_port(peer)
        if local is None or remote is None:
            return False
        return local.fabric is remote.fabric

    def _qp_for(self, peer: "MpiProcess"):
        """Lazily establish a queue pair to ``peer`` (generator)."""
        qp = self._qps.get(peer.rank)
        if qp is not None and qp.alive:
            return qp
        local = _active_ib_port(self.proc)
        remote = _active_ib_port(peer)
        if local is None or remote is None:
            raise BtlUnreachableError(
                f"openib: rank {self.proc.rank}→{peer.rank} lost IB"
            )
        fabric: "InfiniBandFabric" = local.fabric  # type: ignore[assignment]
        yield self.env.timeout(self.proc.calibration.qp_setup_s)
        qp = fabric.create_qp(local, remote)
        self._qps[peer.rank] = qp
        return qp

    def rtt_s(self, peer: "MpiProcess") -> float:
        return 2.0 * self.proc.calibration.ib_latency_s

    def send(self, peer: "MpiProcess", message: "Message"):
        qp = yield from self._qp_for(peer)
        cal = self.proc.calibration
        yield from self.rendezvous(peer, message)
        yield self.env.timeout(cal.ib_latency_s)
        if message.nbytes > 0:
            try:
                flow = qp.post_send(message.nbytes, label=f"mpi.{message.src}->{message.dst}")
            except (LinkDownError, NetworkError) as err:
                # RC retry count exceeded: the QP enters the error state
                # and this peer is unreachable over IB until rebuilt.
                qp.destroy()
                self._broken_peers.add(peer.rank)
                raise BtlUnreachableError(
                    f"openib: rank {self.proc.rank}->{peer.rank}: {err}"
                ) from err
            yield flow.done
        self.sends += 1
        self.bytes_sent += message.nbytes
        peer.deliver(message)

    def prepare_checkpoint(self) -> None:
        """IB resources cannot survive a checkpoint: die entirely."""
        self.finalize()

    def finalize(self) -> None:
        """Tear down every QP (pre-checkpoint resource release)."""
        for qp in self._qps.values():
            qp.destroy()
        self._qps.clear()
        super().finalize()
