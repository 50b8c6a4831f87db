"""Power modelling and power-aware placement.

Section VII's second future-work item: "an intelligent VM placement in a
data center consists of heterogeneous racks for power saving."  Ninja
migration makes the placement *actuator* interconnect-transparent; this
module adds the missing pieces:

* :class:`PowerSpec` / :class:`PowerMeter` — blade + switch power draw
  integrated over simulated time (idle vs. per-busy-core, with empty
  nodes parked in a low-power state);
* :meth:`PowerAwarePlacer.plan` — choose the cheapest destination set
  that keeps vCPU overcommit under a bound, preferring to empty the
  power-hungry rack entirely (its switch can then sleep too).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.core.plan import MigrationPlan
from repro.errors import SchedulerError

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.cluster import Cluster
    from repro.hardware.node import PhysicalNode
    from repro.vmm.qemu import QemuProcess


@dataclass(frozen=True)
class PowerSpec:
    """Electrical model (paper-era blades; watts)."""

    #: Blade drawing idle power (booted, no guest load).
    node_idle_w: float = 155.0
    #: Additional draw per busy core.
    node_per_core_w: float = 17.0
    #: Blade parked in standby (no resident VMs → can be powered down).
    node_standby_w: float = 18.0
    #: QDR InfiniBand blade switch (Mellanox M3601Q class).
    ib_switch_w: float = 226.0
    #: 10 GbE blade switch (Dell M8024 class).
    eth_switch_w: float = 152.0
    #: Myrinet clos switch.
    myrinet_switch_w: float = 198.0


class PowerMeter:
    """Integrates cluster power draw over simulated time."""

    def __init__(
        self,
        cluster: "Cluster",
        spec: PowerSpec = PowerSpec(),
        period_s: float = 5.0,
    ) -> None:
        if period_s <= 0:
            raise SchedulerError("period_s must be positive")
        self.cluster = cluster
        self.env = cluster.env
        self.spec = spec
        self.period_s = period_s
        self.energy_j = 0.0
        self.samples: List[tuple[float, float]] = []
        self._running = False

    # -- instantaneous model ---------------------------------------------------

    def node_power_w(self, node: "PhysicalNode") -> float:
        if not node.vms:
            return self.spec.node_standby_w
        return self.spec.node_idle_w + node.cpu.load * self.spec.node_per_core_w

    def switch_power_w(self) -> float:
        """Switches sleep when their whole sub-cluster is VM-free."""
        total = self.spec.eth_switch_w  # management network always on
        if self.cluster.ib_fabric is not None and any(
            n.vms for n in self.cluster.ib_nodes()
        ):
            total += self.spec.ib_switch_w
        if self.cluster.myrinet_fabric is not None and any(
            n.vms for n in self.cluster.myrinet_nodes()
        ):
            total += self.spec.myrinet_switch_w
        return total

    def cluster_power_w(self) -> float:
        return (
            sum(self.node_power_w(n) for n in self.cluster.nodes.values())
            + self.switch_power_w()
        )

    # -- integration --------------------------------------------------------------

    def start(self) -> "PowerMeter":
        if not self._running:
            self._running = True
            self.env.process(self._loop(), name="powermeter")
        return self

    def stop(self) -> None:
        self._running = False

    def _loop(self):
        while self._running:
            watts = self.cluster_power_w()
            self.samples.append((self.env.now, watts))
            yield self.env.timeout(self.period_s)
            self.energy_j += watts * self.period_s

    def mean_power_w(self) -> float:
        if not self.samples:
            return 0.0
        return sum(w for _, w in self.samples) / len(self.samples)


class PowerAwarePlacer:
    """Chooses migration plans that minimize estimated power draw."""

    def __init__(
        self,
        cluster: "Cluster",
        spec: PowerSpec = PowerSpec(),
        max_overcommit: float = 2.0,
    ) -> None:
        if max_overcommit < 1.0:
            raise SchedulerError("max_overcommit must be >= 1.0")
        self.cluster = cluster
        self.spec = spec
        self.max_overcommit = max_overcommit

    def _min_hosts(self, qemus: Sequence["QemuProcess"], cores: int) -> int:
        total_vcpus = sum(q.vm.vcpus for q in qemus)
        return max(-(-total_vcpus // int(cores * self.max_overcommit)), 1)

    def estimate_power_w(self, active_nodes: int, total_nodes: int, rack: str) -> float:
        """Steady-state draw of a placement (all active nodes loaded)."""
        spec = self.spec
        node_w = active_nodes * (spec.node_idle_w + 8 * spec.node_per_core_w)
        standby_w = (total_nodes - active_nodes) * spec.node_standby_w
        switch_w = spec.eth_switch_w
        if rack == "ib":
            switch_w += spec.ib_switch_w
        elif rack == "myrinet":
            switch_w += spec.myrinet_switch_w
        return node_w + standby_w + switch_w

    def plan(
        self, qemus: Sequence["QemuProcess"], label: str = "power-saving"
    ) -> MigrationPlan:
        """The cheapest feasible placement for ``qemus``.

        Candidate racks: stay on the bypass rack (consolidated), or move
        everything to the Ethernet rack (consolidated) so the bypass
        switch sleeps.  Capacity (RAM + overcommit bound) is respected.
        """
        vm_bytes = max(q.vm.memory.size_bytes for q in qemus)
        total_nodes = len(self.cluster.nodes)
        candidates: List[tuple[float, List[str]]] = []

        def feasible_hosts(nodes: List["PhysicalNode"], need: int, per_host: int) -> Optional[List[str]]:
            fits = [
                n.name
                for n in nodes
                if n.free_memory + sum(
                    q.vm.memory.size_bytes for q in qemus if q.node is n
                ) >= vm_bytes * per_host
            ]
            return fits[:need] if len(fits) >= need else None

        cores = min(n.cpu.cores for n in self.cluster.nodes.values())
        need = self._min_hosts(qemus, cores)
        per_host = -(-len(qemus) // need)

        # Candidate 1: consolidate onto the Ethernet rack.
        eth_hosts = feasible_hosts(self.cluster.eth_only_nodes(), need, per_host)
        if eth_hosts is not None:
            candidates.append(
                (self.estimate_power_w(need, total_nodes, "eth"), eth_hosts)
            )
        # Candidate 2: consolidate within the IB rack (switch stays on).
        ib_hosts = feasible_hosts(self.cluster.ib_nodes(), need, per_host)
        if ib_hosts is not None:
            candidates.append(
                (self.estimate_power_w(need, total_nodes, "ib"), ib_hosts)
            )
        # Candidate 3: Myrinet rack, when present.
        myri_hosts = feasible_hosts(self.cluster.myrinet_nodes(), need, per_host)
        if myri_hosts is not None:
            candidates.append(
                (self.estimate_power_w(need, total_nodes, "myrinet"), myri_hosts)
            )
        if not candidates:
            raise SchedulerError("no feasible power-saving placement")
        candidates.sort(key=lambda c: c[0])
        _, hosts = candidates[0]
        return MigrationPlan.build(
            self.cluster, qemus, hosts, attach_ib=None, label=label
        )
