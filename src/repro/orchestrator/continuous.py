"""Continuous-arrival fleet traffic: the 1,000-VM scale mode.

The figure-level experiments drive at most sixteen VMs through the full
QEMU/MPI stack; provisioning a thousand of those is neither feasible nor
the point.  This module models the *fleet* layer analytically while
exercising the *real* flow kernel: every precopy round of every
migration is an actual max-min-fair flow on a parameterized fat-tree
(:class:`~repro.network.fattree.FatTree`), so the contention-scoped
incremental solver sees production-shaped load — thousands of
overlapping transfers whose contention components are mostly rack-local.

Requests arrive as an open process (:mod:`repro.sim.arrivals`) in three
kinds:

* ``churn``   — one VM moves to a new host (background noise; mostly
  rack-local, per ``rack_local_frac``);
* ``consolidate`` — the emptiest host's VMs pack onto the fullest hosts
  with room (the bin-packing pressure of Figure 8's scenario, fleet-wide);
* ``drain``   — one host evacuates completely (maintenance).

Each VM migration runs the iterative-precopy loop in fluid form: round
``n+1`` retransmits the bytes dirtied during round ``n`` (a per-VM dirty
rate, heterogeneous across the fleet).  After each round the shared
:class:`~repro.vmm.policy.PrecopyRule` — the one
:mod:`repro.vmm.migration` runs — decides on the downtime estimate
dirtied bytes / achieved rate, under :data:`FLUID_PRECOPY`: stop when it
fits the budget or the round cap trips.  Only the per-page bookkeeping,
which does not survive multiplication by a thousand, is left out.

``run_scale_scenario`` is the entry point for ``repro scale`` and
``benchmarks/test_scale.py``.
"""

from __future__ import annotations

import math
import time as _time
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import FleetError
from repro.network.fattree import FatTree
from repro.network.flows import FlowNetwork
from repro.sim.arrivals import Arrival, ArrivalProcess, PoissonProcess
from repro.sim.core import Environment
from repro.sim.rng import RngRegistry
from repro.units import GiB, MiB, gbps
from repro.vmm.policy import STOP, MigrationPolicy, PrecopyRule

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.trace import Tracer

#: Request kinds understood by the fleet.
CHURN = "churn"
CONSOLIDATE = "consolidate"
DRAIN = "drain"

#: Plain precopy with a 30 ms downtime budget and 7 dirty re-send rounds
#: after the bulk pass (8 rounds at most).
FLUID_PRECOPY = MigrationPolicy(downtime_limit_s=0.03, max_iterations=7)

#: Guest RAM of every fleet VM.
VM_RAM_BYTES = float(2 * GiB)
#: Fleet-mean per-VM dirty rate, and its relative spread across VMs
#: (lognormal).
DIRTY_RATE_BPS = 32.0 * MiB
DIRTY_REL_STD = 0.5
#: VMs a consolidation request moves off the emptiest host at most.
CONSOLIDATE_BATCH = 4


@dataclass
class ScaleConfig:
    """Knobs of one continuous-traffic campaign."""

    #: Fleet size (must leave free slots: ``n_vms < hosts * vms_per_host``).
    n_vms: int = 64
    #: Fat-tree arity (k³/4 hosts: k=4 → 16, k=8 → 128, k=16 → 1024).
    k: int = 4
    vms_per_host: int = 8
    host_Bps: float = gbps(10)
    #: Edge-agg / agg-core capacity (None = non-blocking).
    fabric_Bps: Optional[float] = None
    #: Simulated campaign length.
    duration_s: float = 600.0
    arrival_rate_per_s: float = 1.0
    mix: Dict[str, float] = field(
        default_factory=lambda: {CHURN: 0.8, CONSOLIDATE: 0.1, DRAIN: 0.1}
    )
    #: Fraction of churn moves kept inside the source rack.
    rack_local_frac: float = 0.7
    #: Admission cap on concurrent migrations (open system: excess drops).
    max_concurrent: int = 64
    seed: int = 0


@dataclass(eq=False)
class VmState:
    """One fleet VM (analytic: placement + migration parameters only)."""

    name: str
    host: str
    ram_bytes: float
    dirty_rate_Bps: float
    migrating: bool = False
    moves: int = 0


@dataclass
class ScaleResult:
    """Outcome + throughput metrics of one campaign."""

    n_vms: int
    n_hosts: int
    k: int
    #: Simulated span actually covered (horizon + in-flight drain).
    duration_s: float
    wall_s: float
    requests: Dict[str, int]
    moves_requested: int
    migrations_completed: int
    #: Moves dropped at the admission cap.
    rejected: int
    #: Requests that found no movable VM / no free destination.
    starved: int
    rounds_total: int
    bytes_moved: float
    sim_events: int
    flows_started: int
    flows_completed: int
    solver_calls: int
    solver_flows_touched: int
    solver_p50_s: float
    solver_p99_s: float
    solver_total_s: float

    @property
    def events_per_s(self) -> float:
        """Simulator throughput: kernel events per wall-clock second."""
        return self.sim_events / self.wall_s if self.wall_s > 0 else float("inf")

    @property
    def wall_s_per_sim_hour(self) -> float:
        """Wall-clock cost of one simulated hour at this load."""
        if self.duration_s <= 0:
            return 0.0
        return self.wall_s * 3600.0 / self.duration_s

    def to_dict(self) -> dict:
        """JSON-ready summary (benchmark artifact / CLI output)."""
        from dataclasses import asdict

        payload = asdict(self)
        payload["events_per_s"] = self.events_per_s
        payload["wall_s_per_sim_hour"] = self.wall_s_per_sim_hour
        return payload


class ContinuousFleet:
    """Fleet state + request handlers of the continuous-traffic mode."""

    def __init__(
        self,
        env: Environment,
        config: ScaleConfig,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        c = config
        self.env = env
        self.config = c
        self.tracer = tracer
        self.tree = FatTree(c.k, host_Bps=c.host_Bps, fabric_Bps=c.fabric_Bps)
        capacity = self.tree.n_hosts * c.vms_per_host
        if c.n_vms >= capacity:
            raise FleetError(
                f"{c.n_vms} VMs need free slots on {self.tree.n_hosts} hosts "
                f"x {c.vms_per_host} slots = {capacity} (leave headroom to move into)"
            )
        self.flows = FlowNetwork(env, name="scale.flows")
        self.rng = RngRegistry(c.seed)
        self._place = self.rng.stream("scale.placement")

        hosts = self.tree.hosts
        self.host_load: Dict[str, int] = dict.fromkeys(hosts, 0)
        self._host_vms: Dict[str, Dict[VmState, None]] = {h: {} for h in hosts}
        # Slot index over host positions (``tree.hosts`` order), kept by
        # ``_bump``.  Ties go to the lowest/highest position.  Host names
        # are zero-padded, so while pod numbers have two digits (k <= 100)
        # position order is also name order.
        self._hosts = hosts
        self._host_pos = {h: i for i, h in enumerate(hosts)}
        #: Sorted positions per load level (0..vms_per_host).
        self._by_load: List[List[int]] = [[] for _ in range(c.vms_per_host + 1)]
        self._by_load[0] = list(range(len(hosts)))
        #: Sorted positions of hosts with a free slot / with a VM on them.
        self._free: List[int] = list(range(len(hosts)))
        self._occupied: List[int] = []
        self.vms: List[VmState] = []
        dirty = self.rng.stream("scale.dirty")
        # Lognormal with the fleet mean: mu = ln(mean) - sigma²/2.
        sigma = math.sqrt(math.log(1.0 + DIRTY_REL_STD**2))
        mu = math.log(DIRTY_RATE_BPS) - sigma**2 / 2.0
        for i in range(c.n_vms):
            host = hosts[i % len(hosts)]
            rate = float(dirty.lognormal(mu, sigma))
            # A VM dirtying faster than a quarter of its NIC would never
            # converge; real orchestrators throttle those (auto-converge).
            rate = min(rate, 0.25 * c.host_Bps)
            vm = VmState(f"vm{i:04d}", host, VM_RAM_BYTES, rate)
            self.vms.append(vm)
            self._bump(host, 1)
            self._host_vms[host][vm] = None

        self.in_flight = 0
        self.requests: Dict[str, int] = {CHURN: 0, CONSOLIDATE: 0, DRAIN: 0}
        self.moves_requested = 0
        self.migrations_completed = 0
        self.rejected = 0
        self.starved = 0
        self.rounds_total = 0
        self.bytes_moved = 0.0
        self._proc = None

    # -- driving -----------------------------------------------------------------

    def start(self):
        """Launch the arrival driver; returns its simulation process."""
        c = self.config
        process = PoissonProcess(
            self.rng.stream("scale.arrivals"),
            rate_per_s=c.arrival_rate_per_s,
            horizon_s=c.duration_s,
            mix=c.mix,
        )
        self._proc = self.env.process(self._driver(process), name="scale.driver")
        return self._proc

    def _driver(self, process: ArrivalProcess):
        for arrival in process.events():
            delay = arrival.time - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            self._handle(arrival)

    def _handle(self, arrival: Arrival) -> None:
        self.requests[arrival.kind] = self.requests.get(arrival.kind, 0) + 1
        if arrival.kind == CHURN:
            self._churn()
        elif arrival.kind == CONSOLIDATE:
            self._consolidate()
        elif arrival.kind == DRAIN:
            self._drain()
        else:
            raise FleetError(f"unknown request kind {arrival.kind!r}")

    # -- request kinds -----------------------------------------------------------

    def _churn(self) -> None:
        vm = self._pick_idle_vm()
        if vm is None:
            self.starved += 1
            return
        prefer_rack = float(self._place.random()) < self.config.rack_local_frac
        dst = self._free_host(exclude=vm.host, rack_of=vm.host if prefer_rack else None)
        if dst is None:
            self.starved += 1
            return
        self._launch(vm, dst)

    def _consolidate(self) -> None:
        source = self._emptiest_host()
        if source is None:
            self.starved += 1
            return
        movable = [vm for vm in self._host_vms[source] if not vm.migrating]
        launched = 0
        for vm in movable[:CONSOLIDATE_BATCH]:
            # Pack onto the fullest host that still has a free slot.
            dst = self._fullest_free_host(exclude=source)
            if dst is None:
                break
            if self._launch(vm, dst):
                launched += 1
        if launched == 0:
            self.starved += 1

    def _drain(self) -> None:
        occupied = self._occupied
        if not occupied:
            self.starved += 1
            return
        host = self._hosts[occupied[int(self._place.integers(0, len(occupied)))]]
        launched = 0
        for vm in [vm for vm in self._host_vms[host] if not vm.migrating]:
            dst = self._free_host(exclude=host)
            if dst is None:
                break
            if self._launch(vm, dst):
                launched += 1
        if launched == 0:
            self.starved += 1

    # -- selection ---------------------------------------------------------------

    def _pick_idle_vm(self) -> Optional[VmState]:
        vms = self.vms
        for _ in range(8):
            vm = vms[int(self._place.integers(0, len(vms)))]
            if not vm.migrating:
                return vm
        return next((vm for vm in vms if not vm.migrating), None)

    def _free_host(
        self, exclude: str, rack_of: Optional[str] = None
    ) -> Optional[str]:
        """A host with a free slot; rack-local candidates when asked."""
        if rack_of is not None:
            candidates = [
                h
                for h in self.tree.rack_hosts(rack_of)
                if h != exclude and self.host_load[h] < self.config.vms_per_host
            ]
            if candidates:
                return candidates[int(self._place.integers(0, len(candidates)))]
        # Draw over the free hosts minus ``exclude``, then step over it.
        free = self._free
        pos = self._host_pos[exclude]
        at = bisect_left(free, pos)
        skip = at < len(free) and free[at] == pos
        n = len(free) - skip
        if n == 0:
            return None
        r = int(self._place.integers(0, n))
        if skip and r >= at:
            r += 1
        return self._hosts[free[r]]

    def _emptiest_host(self) -> Optional[str]:
        """The least-loaded occupied host (first in host order on ties)."""
        for level in self._by_load[1:]:
            if level:
                return self._hosts[level[0]]
        return None

    def _fullest_free_host(self, exclude: str) -> Optional[str]:
        """The fullest host with a free slot other than ``exclude``
        (last in host order on ties)."""
        skip = self._host_pos[exclude]
        for level in reversed(self._by_load[:-1]):
            for pos in reversed(level[-2:]):
                if pos != skip:
                    return self._hosts[pos]
        return None

    def _bump(self, host: str, delta: int) -> None:
        """Change ``host``'s load by ``delta`` (±1) and re-file its position."""
        pos = self._host_pos[host]
        old = self.host_load[host]
        new = old + delta
        self.host_load[host] = new
        level = self._by_load[old]
        del level[bisect_left(level, pos)]
        insort(self._by_load[new], pos)
        full = self.config.vms_per_host
        if old == full:
            insort(self._free, pos)
        elif new == full:
            del self._free[bisect_left(self._free, pos)]
        if old == 0:
            insort(self._occupied, pos)
        elif new == 0:
            del self._occupied[bisect_left(self._occupied, pos)]

    # -- migration ---------------------------------------------------------------

    def _launch(self, vm: VmState, dst: str) -> bool:
        self.moves_requested += 1
        if self.in_flight >= self.config.max_concurrent:
            self.rejected += 1
            return False
        # The destination slot is reserved for the whole transfer; the
        # source slot frees only at commit (the VM exists on both ends).
        vm.migrating = True
        self._bump(dst, 1)
        self.in_flight += 1
        self.env.process(self._migrate(vm, dst), name=f"mig.{vm.name}")
        return True

    def _migrate(self, vm: VmState, dst: str):
        src = vm.host
        path = self.tree.path(src, dst)
        rule = PrecopyRule(FLUID_PRECOPY)
        bytes_left = vm.ram_bytes
        rounds = 0
        moved = 0.0
        while True:
            flow = self.flows.start(path, bytes_left, label=f"mig:{vm.name}")
            t0 = self.env.now
            yield flow.done
            dt = max(self.env.now - t0, 1e-9)
            moved += flow.nbytes
            achieved_Bps = flow.nbytes / dt
            dirtied = min(vm.dirty_rate_Bps * dt, vm.ram_bytes)
            # The fluid guest is never throttled, and the policy never
            # escalates: the rule says stop or continue.
            action = rule.after_round(rounds, dirtied / achieved_Bps, 0.0)
            rounds += 1
            if action.kind == STOP:
                break
            bytes_left = dirtied
        yield self.env.timeout(rule.downtime_limit_s)

        del self._host_vms[src][vm]
        self._host_vms[dst][vm] = None
        self._bump(src, -1)
        vm.host = dst
        vm.migrating = False
        vm.moves += 1
        self.in_flight -= 1
        self.migrations_completed += 1
        self.rounds_total += rounds
        self.bytes_moved += moved
        if self.tracer is not None:
            self.tracer.emit(
                self.env.now, "scale", "migrated",
                vm=vm.name, src=src, dst=dst, rounds=rounds, bytes=moved,
            )


def run_scale_scenario(
    config: ScaleConfig, tracer: Optional["Tracer"] = None
) -> ScaleResult:
    """Run one continuous-traffic campaign and measure kernel throughput.

    Arrivals stop at ``config.duration_s``; the run then drains in-flight
    migrations to completion (still measured — it is kernel work).
    """
    env = Environment()
    fleet = ContinuousFleet(env, config, tracer=tracer)
    stats = fleet.flows.enable_solver_stats()
    fleet.start()

    events0 = env.events_processed
    t0 = _time.perf_counter()
    env.run()
    wall_s = _time.perf_counter() - t0

    return ScaleResult(
        n_vms=config.n_vms,
        n_hosts=fleet.tree.n_hosts,
        k=config.k,
        duration_s=env.now,
        wall_s=wall_s,
        requests=dict(fleet.requests),
        moves_requested=fleet.moves_requested,
        migrations_completed=fleet.migrations_completed,
        rejected=fleet.rejected,
        starved=fleet.starved,
        rounds_total=fleet.rounds_total,
        bytes_moved=fleet.bytes_moved,
        sim_events=env.events_processed - events0,
        flows_started=fleet.flows.total_started,
        flows_completed=fleet.flows.total_completed,
        solver_calls=stats.calls,
        solver_flows_touched=stats.flows_touched,
        solver_p50_s=stats.percentile(50),
        solver_p99_s=stats.percentile(99),
        solver_total_s=stats.total_s,
    )


__all__ = [
    "CHURN",
    "CONSOLIDATE",
    "DRAIN",
    "FLUID_PRECOPY",
    "ContinuousFleet",
    "ScaleConfig",
    "ScaleResult",
    "VmState",
    "run_scale_scenario",
]
