"""The fleet state store: global truth for multi-job orchestration.

One :class:`FleetStateStore` per datacenter tracks every registered job,
every in-flight migration, and — crucially — **reservations** of
destination capacity.  Placement decisions made in the same simulated
tick see each other through the store, so two plans can never
double-book the same host RAM or the same VMM-bypass HCA: the paper's
single-sequence scheduler validated capacity against *instantaneous*
free memory, which is only safe when exactly one plan exists at a time.

Reservations are plain bookkeeping (no simulated time cost) and are
deliberately conservative: a reservation is held from planning until
the migration sequence terminates, even though the real RAM claim
(:meth:`~repro.vmm.qemu.QemuProcess.relocate`) happens mid-sequence.
Double-counting during that window can only defer a later plan, never
oversubscribe a host.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.errors import FleetError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.plan import MigrationPlan
    from repro.hardware.cluster import Cluster
    from repro.hardware.node import PhysicalNode
    from repro.mpi.runtime import MpiJob
    from repro.vmm.qemu import QemuProcess

_reservation_ids = count()


@dataclass(eq=False)
class Reservation:
    """A claim on destination-host capacity (and optionally its HCA)."""

    host: str
    nbytes: int
    owner: object
    hca: bool = False
    reservation_id: int = field(default_factory=lambda: next(_reservation_ids))
    #: Cleared when released; double-release is an error.
    active: bool = True

    def __repr__(self) -> str:  # pragma: no cover
        kind = "+hca" if self.hca else ""
        return f"<Reservation #{self.reservation_id} {self.host} {self.nbytes}B{kind}>"


@dataclass
class FleetJob:
    """One tenant job under fleet management."""

    job_id: str
    tenant: str
    job: "MpiJob"
    qemus: List["QemuProcess"]
    #: True while a migration sequence for this job is in flight — at
    #: most one sequence may own a job's VMs at a time (the SymVirt park
    #: is job-global).  Proactive checkpoints hold the same exclusivity.
    busy: bool = False
    #: The job's SPMD program, kept so a checkpoint restore can relaunch
    #: the replacement :class:`~repro.mpi.runtime.MpiJob` from the
    #: restored epoch.  None means restore boots the VMs but cannot
    #: resume computation.
    rank_main: Optional[Callable] = None

    def hosts(self) -> List[str]:
        return [q.node.name for q in self.qemus]


class FleetStateStore:
    """Reservations + job/migration registries for one cluster."""

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.env = cluster.env
        self._reservations: Dict[str, List[Reservation]] = {}
        self.jobs: Dict[str, FleetJob] = {}
        #: Plans currently executing (plan → owner token).
        self.inflight: Dict[object, "MigrationPlan"] = {}
        #: Monotone counters for diagnostics / benchmark artifacts.
        self.total_reserved = 0
        self.total_released = 0

    # -- job registry ----------------------------------------------------------

    def register_job(
        self,
        job_id: str,
        job: "MpiJob",
        qemus: Sequence["QemuProcess"],
        tenant: str = "default",
        rank_main: Optional[Callable] = None,
    ) -> FleetJob:
        if job_id in self.jobs:
            raise FleetError(f"duplicate job id {job_id!r}")
        record = FleetJob(
            job_id=job_id, tenant=tenant, job=job, qemus=list(qemus),
            rank_main=rank_main,
        )
        self.jobs[job_id] = record
        self.cluster.trace(
            "fleet", "job_registered", job=job_id, tenant=tenant,
            hosts=record.hosts(),
        )
        return record

    def replace_job(
        self,
        job_id: str,
        job: "MpiJob",
        qemus: Sequence["QemuProcess"],
    ) -> FleetJob:
        """Swap a registered job's MpiJob + VMs for restored replacements.

        Checkpoint restore boots *new* QEMU processes and a *new*
        :class:`~repro.mpi.runtime.MpiJob`; the fleet identity (job id,
        tenant, SPMD program) survives the swap.  The old objects stay
        reachable through the journal/traces only.
        """
        record = self.job(job_id)
        record.job = job
        record.qemus = list(qemus)
        record.busy = False
        self.cluster.trace(
            "fleet", "job_replaced", job=job_id, hosts=record.hosts(),
        )
        return record

    def job(self, job_id: str) -> FleetJob:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise FleetError(f"unknown job {job_id!r}") from None

    def jobs_on(self, host: str) -> List[FleetJob]:
        """Jobs with at least one VM currently on ``host``."""
        return [
            record
            for record in self.jobs.values()
            if any(q.node.name == host for q in record.qemus)
        ]

    # -- capacity reservations --------------------------------------------------

    def reservations(self) -> List[Reservation]:
        """Every active reservation, host by host."""
        return [r for bucket in self._reservations.values() for r in bucket]

    def reserved_bytes(self, host: str) -> int:
        return sum(r.nbytes for r in self._reservations.get(host, ()))

    def hca_reserved(self, host: str) -> bool:
        return any(r.hca for r in self._reservations.get(host, ()))

    def available_bytes(self, node: "PhysicalNode") -> float:
        """Free memory net of reservations (never negative)."""
        return max(node.free_memory - self.reserved_bytes(node.name), 0.0)

    def reserve(
        self, host: str, nbytes: int, owner: object, hca: bool = False
    ) -> Reservation:
        """Claim ``nbytes`` of ``host`` RAM (and its HCA when asked).

        Raises :class:`~repro.errors.FleetError` when the claim would
        oversubscribe the host (:func:`repro.invariants.check` audits it).
        """
        node = self.cluster.node(host)
        if nbytes > self.available_bytes(node):
            raise FleetError(
                f"{host}: reserving {nbytes} B would oversubscribe "
                f"({self.available_bytes(node):.0f} B available after "
                f"{self.reserved_bytes(host)} B already reserved)"
            )
        if hca and self.hca_reserved(host):
            raise FleetError(f"{host}: HCA already reserved")
        reservation = Reservation(host=host, nbytes=int(nbytes), owner=owner, hca=hca)
        self._reservations.setdefault(host, []).append(reservation)
        self.total_reserved += 1
        return reservation

    def release(self, reservation: Reservation) -> None:
        if not reservation.active:
            raise FleetError(f"double release of {reservation!r}")
        reservation.active = False
        bucket = self._reservations.get(reservation.host, [])
        bucket.remove(reservation)
        if not bucket:
            self._reservations.pop(reservation.host, None)
        self.total_released += 1

    def release_owner(self, owner: object) -> int:
        """Release every reservation held by ``owner``; returns the count."""
        mine = [
            r for bucket in self._reservations.values() for r in bucket
            if r.owner is owner
        ]
        for reservation in mine:
            self.release(reservation)
        return len(mine)

    # -- plan-level claims -------------------------------------------------------

    def claim_plan(self, plan: "MigrationPlan", owner: Optional[object] = None) -> List[Reservation]:
        """Reserve every destination the plan lands on (keyed by ``owner``).

        Self-migrations reserve nothing (the VM already owns its RAM).
        """
        key = owner if owner is not None else plan
        claimed: List[Reservation] = []
        try:
            for entry in plan.entries:
                if entry.is_self_migration:
                    continue
                claimed.append(
                    self.reserve(
                        entry.dst_host,
                        entry.qemu.vm.memory.size_bytes,
                        key,
                        hca=entry.attach_ib,
                    )
                )
        except FleetError:
            for reservation in claimed:
                self.release(reservation)
            raise
        return claimed

    # -- in-flight migrations -----------------------------------------------------

    def begin_migration(self, owner: object, plan: "MigrationPlan") -> None:
        if owner in self.inflight:
            raise FleetError(f"owner {owner!r} already has a migration in flight")
        self.inflight[owner] = plan

    def end_migration(self, owner: object) -> None:
        self.inflight.pop(owner, None)
        self.release_owner(owner)


@dataclass(eq=False)
class _SpareClaim:
    """One incident's pending request for a set of spare hosts."""

    incident_id: int
    hosts: frozenset
    blast_radius: int
    seq: int
    event: Event


class SpareArbiter:
    """Leases of spare hosts across *concurrent incidents*.

    Two overlapping incidents (a fiber cut evacuating around a dark WAN
    and a host failure restoring from checkpoint) compete for the same
    thin pool of spare hosts.  The arbiter serialises that competition:

    * a remediation **acquires** every spare it needs *atomically* — it
      either gets all of them or waits, never holds a subset (no
      hold-and-wait, hence no deadlock between incidents);
    * waiting claims are granted ordered by **blast radius** (bigger
      incident first; FIFO within a tie), so the incident threatening
      more requests is never starved by a smaller one;
    * a host leased to one incident is invisible to others until
      **released**; re-acquiring under the same incident id is free
      (remediation steps of one incident compose).

    Leases are advisory concurrency control *between incidents*; RAM
    capacity itself stays guarded by :class:`FleetStateStore`
    reservations.  ``double_leases`` audits the invariant the benchmark
    pins: it must stay empty.
    """

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.env = cluster.env
        #: host name → incident id holding it.
        self.leases: Dict[str, int] = {}
        self._waiting: List[_SpareClaim] = []
        self._seq = count()
        #: (time, incident, hosts) audit of every grant.
        self.grants: List[tuple] = []
        #: (host, holder, claimant) conflicts that slipped through — the
        #: no-double-reservation invariant says this stays empty.
        self.double_leases: List[tuple] = []

    # -- queries -----------------------------------------------------------------

    def holder(self, host: str) -> Optional[int]:
        return self.leases.get(host)

    def leased_to_others(self, incident_id: int) -> set:
        """Hosts currently leased to a *different* incident."""
        return {
            host for host, owner in self.leases.items() if owner != incident_id
        }

    def held_by(self, incident_id: int) -> List[str]:
        return sorted(
            host for host, owner in self.leases.items() if owner == incident_id
        )

    # -- lease lifecycle -----------------------------------------------------------

    def acquire(self, incident_id: int, hosts: Sequence[str], blast_radius: int = 0):
        """Lease every listed host to ``incident_id`` (generator).

        Blocks until *all* of them are free (or already ours).  Returns
        the sorted host list.
        """
        wanted = frozenset(hosts)
        if not wanted:
            return []
        claim = _SpareClaim(
            incident_id=incident_id,
            hosts=wanted,
            blast_radius=blast_radius,
            seq=next(self._seq),
            event=Event(self.env),
        )
        self._waiting.append(claim)
        self._grant()
        yield claim.event
        return sorted(wanted)

    def release(self, incident_id: int) -> List[str]:
        """Drop every lease held by ``incident_id``; wakes waiting claims."""
        freed = self.held_by(incident_id)
        for host in freed:
            del self.leases[host]
        if freed:
            self.cluster.trace(
                "arbiter", "released", incident=incident_id, hosts=freed,
            )
            self._grant()
        return freed

    # -- internal ------------------------------------------------------------------

    def _grant(self) -> None:
        """Grant every satisfiable waiting claim, biggest blast radius first.

        A claim is satisfiable when each wanted host is unleased or
        already leased to the same incident — all-or-nothing, so partial
        holds never exist.  Smaller claims over *disjoint* hosts are
        granted in the same pass (no head-of-line blocking on capacity
        they don't contend for).
        """
        self._waiting.sort(key=lambda c: (-c.blast_radius, c.seq))
        granted: List[_SpareClaim] = []
        for claim in self._waiting:
            blockers = {
                host
                for host in claim.hosts
                if self.leases.get(host, claim.incident_id) != claim.incident_id
            }
            if blockers:
                continue
            for host in claim.hosts:
                holder = self.leases.get(host)
                if holder is not None and holder != claim.incident_id:
                    # Unreachable by construction; audited, not assumed.
                    self.double_leases.append((host, holder, claim.incident_id))
                self.leases[host] = claim.incident_id
            granted.append(claim)
            self.grants.append(
                (self.env.now, claim.incident_id, sorted(claim.hosts))
            )
            self.cluster.trace(
                "arbiter", "granted", incident=claim.incident_id,
                hosts=sorted(claim.hosts), blast_radius=claim.blast_radius,
            )
        for claim in granted:
            self._waiting.remove(claim)
            if not claim.event.triggered:
                claim.event.succeed(sorted(claim.hosts))
