"""The wave planner: bandwidth-aware sequencing + destination swapping.

Wang et al. (*VM Migration Planning in SDN*) observe that when several
migrations share a link, the *order and grouping* of the migrations
dominates total migration time; Avin et al. (*Simple Destination-Swap
Strategies*) show that cheap pairwise destination exchanges recover most
of the benefit of optimal placement.  This module implements both on top
of the repo's flow-level fabric model:

* :func:`migration_links` projects a plan onto the Ethernet topology
  (the migration stream's network) and returns the directed links it
  will occupy;
* :meth:`WavePlanner.destination_swap` greedily trades destinations
  between two plans whenever the trade lowers the byte load on the most
  loaded link (ties broken by total bytes x hops);
* :meth:`WavePlanner.waves` groups plans into *waves*: plans inside a
  wave share no directed link (they run concurrently at full rate);
  plans whose paths collide land in later waves (they run serially).

Byte estimates come from guest-memory introspection: zero/uniform pages
compress to a 9-byte wire token during QEMU precopy, so only
:attr:`~repro.vmm.guest_memory.GuestMemory.data_bytes` meaningfully
loads a link.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence

from repro.errors import NetworkError
from repro.units import MiB

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.plan import MigrationPlan, PlanEntry
    from repro.hardware.cluster import Cluster
    from repro.network.links import DirectedLink

#: Floor on a VM's byte estimate: page-table scan and dup-page tokens
#: are never free, and a zero estimate would make swaps degenerate.
MIN_ESTIMATE_BYTES = 1 * MiB


def estimate_entry_bytes(entry: "PlanEntry") -> float:
    """Estimated wire bytes for one VM's migration stream."""
    return float(max(entry.qemu.vm.memory.data_bytes, MIN_ESTIMATE_BYTES))


def migration_links(cluster: "Cluster", plan: "MigrationPlan") -> FrozenSet["DirectedLink"]:
    """Directed Ethernet links the plan's migration streams will occupy."""
    if cluster.eth_fabric is None:
        return frozenset()
    topology = cluster.eth_fabric.topology
    links: set = set()
    for entry in plan.entries:
        if entry.is_self_migration:
            continue
        links.update(topology.path(entry.src_host, entry.dst_host))
    return frozenset(links)


@dataclass(eq=False)
class PlannedMigration:
    """One plan annotated with its network footprint."""

    plan: "MigrationPlan"
    links: FrozenSet["DirectedLink"] = frozenset()
    #: Directed link → estimated bytes this plan pushes through it.
    bytes_by_link: Dict["DirectedLink", float] = field(default_factory=dict)
    est_bytes: float = 0.0

    def refresh(self, cluster: "Cluster") -> "PlannedMigration":
        """(Re)compute the footprint from the plan's current entries."""
        topology = cluster.eth_fabric.topology if cluster.eth_fabric else None
        self.bytes_by_link = {}
        self.est_bytes = 0.0
        links: set = set()
        for entry in self.plan.entries:
            nbytes = estimate_entry_bytes(entry)
            self.est_bytes += nbytes
            if entry.is_self_migration or topology is None:
                continue
            for dlink in topology.path(entry.src_host, entry.dst_host):
                links.add(dlink)
                self.bytes_by_link[dlink] = self.bytes_by_link.get(dlink, 0.0) + nbytes
        self.links = frozenset(links)
        return self


class WavePlanner:
    """Sequences a batch of plans over the shared Ethernet fabric."""

    def __init__(self, cluster: "Cluster", max_swap_rounds: int = 8) -> None:
        self.cluster = cluster
        self.max_swap_rounds = max_swap_rounds
        #: Destination swaps applied by the last :meth:`destination_swap`.
        self.swaps_applied = 0
        #: Link *names* declared unusable (incident response).  Plans whose
        #: footprint crosses a blacklisted link are never startable.
        self.blacklisted: set[str] = set()

    # -- link blacklisting ---------------------------------------------------------

    def blacklist_links(self, names: Sequence[str]) -> None:
        """Mark links unusable for planning until unblacklisted."""
        self.blacklisted.update(names)

    def unblacklist_links(self, names: Optional[Sequence[str]] = None) -> None:
        """Clear the given link names (or the whole blacklist)."""
        if names is None:
            self.blacklisted.clear()
        else:
            self.blacklisted.difference_update(names)

    def crosses_blacklist(self, links: FrozenSet["DirectedLink"]) -> bool:
        """Does this footprint touch any blacklisted link?"""
        if not self.blacklisted:
            return False
        return any(dlink.link.name in self.blacklisted for dlink in links)

    # -- analysis ------------------------------------------------------------------

    def analyze(self, plans: Sequence["MigrationPlan"]) -> List[PlannedMigration]:
        return [PlannedMigration(plan).refresh(self.cluster) for plan in plans]

    @staticmethod
    def link_loads(planned: Sequence[PlannedMigration]) -> Dict["DirectedLink", float]:
        loads: Dict["DirectedLink", float] = {}
        for item in planned:
            for dlink, nbytes in item.bytes_by_link.items():
                loads[dlink] = loads.get(dlink, 0.0) + nbytes
        return loads

    def _objective(self, planned: Sequence[PlannedMigration]) -> tuple:
        """(bottleneck seconds, total link-seconds) — lower is better.

        Loads are normalised by link capacity so a loaded slow WAN pipe
        outweighs an equally loaded 10 GbE blade link.
        """
        loads = self.link_loads(planned)
        bottleneck = 0.0
        total = 0.0
        for dlink, nbytes in loads.items():
            seconds = nbytes / dlink.capacity_Bps
            bottleneck = max(bottleneck, seconds)
            total += seconds
        return (bottleneck, total)

    # -- destination swapping ----------------------------------------------------------

    def _swap_valid(self, a: "PlanEntry", b: "PlanEntry") -> bool:
        """Can ``a`` and ``b`` trade destination hosts?"""
        if a.dst_host == b.dst_host:
            return False
        node_a = self.cluster.node(a.dst_host)
        node_b = self.cluster.node(b.dst_host)
        # Attach requirements must survive the trade.
        if a.attach_ib and not node_b.has_bypass_fabric:
            return False
        if b.attach_ib and not node_a.has_bypass_fabric:
            return False
        # Capacity: each host must absorb the other VM's RAM.  Δ-check
        # against raw free memory — the executor re-validates against
        # reservations when it claims the swapped plan.
        size_a = a.qemu.vm.memory.size_bytes
        size_b = b.qemu.vm.memory.size_bytes
        if size_b > size_a and node_a.free_memory < (size_b - size_a):
            return False
        if size_a > size_b and node_b.free_memory < (size_a - size_b):
            return False
        return True

    def destination_swap(self, planned: List[PlannedMigration]) -> List[PlannedMigration]:
        """Greedy improving pass: trade destinations between plan pairs.

        Mutates the underlying plans (``entry.dst_host``) and refreshes
        footprints in place.  Terminates when a full round finds no
        improving swap or after ``max_swap_rounds`` rounds.
        """
        self.swaps_applied = 0
        if len(planned) < 2:
            return planned
        current = self._objective(planned)
        for _ in range(self.max_swap_rounds):
            improved = False
            for i in range(len(planned)):
                for j in range(i + 1, len(planned)):
                    one, two = planned[i], planned[j]
                    for entry_a in one.plan.entries:
                        for entry_b in two.plan.entries:
                            if not self._swap_valid(entry_a, entry_b):
                                continue
                            entry_a.dst_host, entry_b.dst_host = (
                                entry_b.dst_host,
                                entry_a.dst_host,
                            )
                            try:
                                one.refresh(self.cluster)
                                two.refresh(self.cluster)
                            except NetworkError:
                                candidate = None  # unroutable trade
                            else:
                                candidate = self._objective(planned)
                            if candidate is not None and candidate < current:
                                current = candidate
                                improved = True
                                self.swaps_applied += 1
                            else:  # undo
                                entry_a.dst_host, entry_b.dst_host = (
                                    entry_b.dst_host,
                                    entry_a.dst_host,
                                )
                                one.refresh(self.cluster)
                                two.refresh(self.cluster)
            if not improved:
                break
        return planned

    # -- wave grouping -------------------------------------------------------------------

    def waves(
        self,
        planned: Sequence[PlannedMigration],
        busy_links: Optional[FrozenSet["DirectedLink"]] = None,
    ) -> List[List[PlannedMigration]]:
        """Group plans into waves of link-disjoint migrations.

        Wave 0 is the *startable-now* set: its members collide neither
        with each other nor with ``busy_links`` (links held by
        already-running migrations).  Later waves collide with some
        earlier wave and must wait.  Wave 0 can come back empty when
        everything collides with running traffic.  Order within the
        input is preserved — callers pass priority-sorted batches.
        """
        grouped: List[List[PlannedMigration]] = [[]]
        used: List[set] = [set(busy_links or ())]
        for item in planned:
            for idx, blocked in enumerate(used):
                if not (item.links & blocked):
                    grouped[idx].append(item)
                    blocked |= item.links
                    break
            else:
                grouped.append([item])
                used.append(set(item.links))
        return grouped
