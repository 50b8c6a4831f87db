"""BTL module selection and reconstruction.

Selection runs at job start and again after every checkpoint *continue* /
*restart* phase (Section III-C).  For each peer the highest-exclusivity
module that reaches it wins; "if an Infiniband device is available after a
migration, the Infiniband device is used according to the exclusivity
parameters.  Otherwise, fallback to Ethernet occurs."
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.errors import BtlUnreachableError
from repro.mpi.btl.base import Btl, DEFAULT_REGISTRY

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.runtime import MpiProcess


class BtlSelection:
    """Per-process set of constructed modules + per-peer routing."""

    def __init__(self, proc: "MpiProcess") -> None:
        self.proc = proc
        self.modules: List[Btl] = []
        self._routes: Dict[int, Btl] = {}
        #: Snapshot of usable component names at the last (re)construction;
        #: the continue phase compares against it to decide whether
        #: reconstruction is needed.
        self.device_fingerprint: tuple[str, ...] = ()
        #: Count of (re)constructions (diagnostics / tests).
        self.generations = 0
        #: Cumulative traffic by transport, including retired module
        #: generations (survives reconstructions).
        self.lifetime_bytes: Dict[str, int] = {}
        self.lifetime_sends: Dict[str, int] = {}

    # -- construction -----------------------------------------------------------

    def construct(self):
        """Build modules for every usable component (generator).

        Costs ``btl_init_s`` per module, matching the observation that BTL
        (re)initialization is cheap next to hotplug/link-up.
        """
        self._retire_counters()
        usable = [c for c in DEFAULT_REGISTRY.components() if c.usable(self.proc)]
        self.modules = []
        for component in usable:
            yield self.proc.env.timeout(self.proc.calibration.btl_init_s)
            self.modules.append(component(self.proc))
        self._routes.clear()
        self.device_fingerprint = tuple(c.name for c in usable)
        self.generations += 1
        self.proc.trace(
            "btl", "constructed", modules=[m.name for m in self.modules]
        )

    def _retire_counters(self) -> None:
        """Fold the live modules' traffic counters into lifetime totals."""
        for module in self.modules:
            self.lifetime_bytes[module.name] = (
                self.lifetime_bytes.get(module.name, 0) + module.bytes_sent
            )
            self.lifetime_sends[module.name] = (
                self.lifetime_sends.get(module.name, 0) + module.sends
            )
            module.bytes_sent = 0
            module.sends = 0

    def traffic_by_transport(self) -> Dict[str, int]:
        """Cumulative bytes sent per transport (live + retired modules)."""
        totals = dict(self.lifetime_bytes)
        for module in self.modules:
            totals[module.name] = totals.get(module.name, 0) + module.bytes_sent
        return {name: total for name, total in totals.items() if total}

    def finalize(self) -> None:
        """Tear all modules down (job shutdown)."""
        self._retire_counters()
        for module in self.modules:
            module.finalize()
        self.modules = []
        self._routes.clear()
        self.proc.trace("btl", "finalized")

    def prepare_checkpoint(self) -> None:
        """Pre-checkpoint phase: release unsaveable transport resources.

        ``openib`` dies (QPs cannot survive), ``tcp`` drops sockets but the
        module lives on — the asymmetry that makes
        ``ompi_cr_continue_like_restart`` necessary for recovery migration.
        """
        for module in self.modules:
            module.prepare_checkpoint()
        self._routes.clear()
        self.proc.trace("btl", "prepare_checkpoint")

    def needs_reconstruction(self) -> bool:
        """Does the continue phase have to rebuild modules?

        Open MPI's continue phase reconstructs only when a module in use
        died (the openib module after a detach).  It does **not** re-probe
        for *new* devices — that is exactly why the paper must force
        reconstruction (``ompi_cr_continue_like_restart``) on recovery
        migration, where IB silently became available while only tcp kept
        working.
        """
        if not self.modules:
            return True
        return any(not m.alive for m in self.modules)

    # -- routing -------------------------------------------------------------------

    def route(self, peer: "MpiProcess") -> Btl:
        """The module carrying traffic to ``peer`` (cached)."""
        module = self._routes.get(peer.rank)
        if module is not None and module.alive and module.reaches(peer):
            return module
        for candidate in self.modules:  # ordered high→low exclusivity
            if candidate.alive and candidate.reaches(peer):
                self._routes[peer.rank] = candidate
                return candidate
        raise BtlUnreachableError(
            f"rank {self.proc.rank}: no BTL reaches rank {peer.rank} "
            f"(modules: {[m.name for m in self.modules]})"
        )

    def route_name(self, peer: "MpiProcess") -> str:
        """Convenience for tests: which transport serves ``peer``."""
        return self.route(peer).name

    def module(self, name: str) -> Optional[Btl]:
        for m in self.modules:
            if m.name == name:
                return m
        return None
