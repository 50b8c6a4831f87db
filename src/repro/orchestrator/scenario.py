"""The two-site estate every drill runs on, and its drain preset.

A two-site estate: the IB-cabled primary runs one single-VM-group MPI
job per blade; the operator drains the whole IB sub-cluster onto the
Ethernet estate, half of which sits behind a thin WAN pipe at a backup
site.  Each job arrives with a naive round-robin destination (job *i* →
``eth0i``), which sends the *large* jobs over the WAN.

* **naive** mode (``sequenced=False``) executes that assignment as
  given, all migrations at once — the baseline;
* **sequenced** mode runs the full planner: the destination-swap pass
  re-maps large jobs onto local Ethernet hosts (small ones absorb the
  WAN hop), and wave sequencing serialises the migrations that still
  share the WAN bottleneck.

Every estate drill — the plain and naive drains, the controller-crash
drain, the fiber cut and the host kill — runs through one runner,
:func:`repro.incident.scenario.run_drill`, and returns one
``DrillResult``.  They share one setup path (:func:`build_estate`:
cluster, orchestrator, provisioned and registered jobs,
:meth:`Estate.submit_drain`) and one outcome fold (:meth:`Estate.fold`:
per-request rows, status counts, lost VMs, final placement, makespan),
which runs :func:`repro.invariants.check` over the end state.
:func:`run_fleet_scenario` is the drain preset behind ``repro fleet``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.hardware.cluster import Cluster
from repro.invariants import Violation, check
from repro.orchestrator.executor import FleetConfig, FleetOrchestrator
from repro.orchestrator.state import FleetStateStore
from repro.sim.trace import Tracer
from repro.testbed import busy_rank, create_job, provision_vms
from repro.units import GiB, MiB, gbps
from repro.vmm.guest_memory import PageClass

if TYPE_CHECKING:  # pragma: no cover
    from repro.incident.scenario import DrillResult
    from repro.orchestrator.admission import MigrationRequest

#: Guest-RAM size for fleet-scenario VMs (smaller than the paper's
#: 20 GiB so destination hosts can absorb several).
FLEET_VM_MEMORY = 4 * GiB
#: Resident data set of a "small" job's VM (compresses to ~this on wire).
SMALL_DATA_BYTES = 256 * MiB
#: Resident data set of a "large" job's VM.
LARGE_DATA_BYTES = 1536 * MiB


def build_fleet_cluster(
    nvms: int,
    spares: int = 0,
    wan_gbps: float = 1.0,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
) -> Cluster:
    """Primary site (IB blades + local Ethernet) plus a WAN-attached backup.

    ``nvms`` IB-cabled source blades, ``ceil(nvms/2)`` Ethernet hosts in
    the primary enclosure, and ``floor(nvms/2)`` (at least one) behind
    the WAN — so a one-for-one drain *must* push half the fleet through
    the bottleneck unless the planner re-maps destinations.  ``spares``
    empty primary-site hosts (``sp01``…) give incident remediation
    somewhere local to evacuate or restore to while the WAN is dark.
    """
    if nvms < 2:
        raise ValueError("fleet scenario needs at least 2 VMs")
    cluster = Cluster(seed=seed, tracer=tracer)
    ib_names = [f"ib{i + 1:02d}" for i in range(nvms)]
    eth_names = [f"eth{i + 1:02d}" for i in range(nvms)]
    spare_names = [f"sp{i + 1:02d}" for i in range(spares)]
    local_eth = eth_names[: (nvms + 1) // 2]
    remote_eth = eth_names[(nvms + 1) // 2:]
    for name in ib_names + eth_names + spare_names:
        cluster.add_node(name)
    cluster.wire_ethernet(
        sites={
            "primary": ib_names + local_eth + spare_names,
            "backup": remote_eth,
        },
        wan_bandwidth_Bps=gbps(wan_gbps),
        wan_latency_s=5e-3,
    )
    cluster.wire_infiniband(ib_names)
    return cluster


def _provision_fleet(cluster, jobs: int, vms_per_job: int, tenants: int):
    """Provision + launch the scenario's MPI jobs; returns records of
    (job_id, tenant, job, qemus, naive round-robin dst_hosts)."""
    env = cluster.env
    nvms = jobs * vms_per_job
    eth_names = [f"eth{i + 1:02d}" for i in range(nvms)]
    records = []
    for i in range(jobs):
        src_hosts = [f"ib{i * vms_per_job + k + 1:02d}" for k in range(vms_per_job)]
        qemus = provision_vms(
            cluster, src_hosts, memory_bytes=FLEET_VM_MEMORY, name_prefix=f"j{i}"
        )
        job = create_job(cluster, qemus)
        done = env.process(job.init(), name=f"fleet.init.j{i}")
        env.run(until=done)
        data = SMALL_DATA_BYTES if i < jobs // 2 else LARGE_DATA_BYTES
        for q in qemus:
            q.vm.memory.write(0, data, PageClass.DATA)
        job.launch(busy_rank)
        dst_hosts = [
            eth_names[(i * vms_per_job + k) % nvms] for k in range(vms_per_job)
        ]
        records.append((f"j{i}", f"t{i % max(tenants, 1)}", job, qemus, dst_hosts))
    return records


@dataclass
class Estate:
    """A provisioned estate with every job registered, ready to drain.

    The drain starts at ``start_at``, one simulated second after
    provisioning; makespans count from there.
    """

    cluster: Cluster
    orch: FleetOrchestrator
    #: (job_id, tenant, job, qemus, naive round-robin dst_hosts) per job.
    records: List[tuple]
    start_at: float

    def register_jobs(self, orch: FleetOrchestrator) -> None:
        """Register every job with ``orch`` (the estate's, or a successor)."""
        for job_id, tenant, job, qemus, _ in self.records:
            orch.register_job(job_id, job, qemus, tenant=tenant, rank_main=busy_rank)

    def submit_drain(self, on_start: Optional[Callable[[], None]] = None) -> None:
        """Spawn the process that submits every job's spread drain at
        ``start_at``, right after ``on_start`` (e.g. starting a chaos
        clock whose offsets are relative to the drain)."""
        env = self.cluster.env

        def _submit_all():
            yield env.timeout(self.start_at - env.now)
            if on_start is not None:
                on_start()
            for job_id, _, _, _, dst_hosts in self.records:
                self.orch.submit(job_id, kind="spread", dst_hosts=dst_hosts)

        env.process(_submit_all(), name="estate.submit")

    def fold(
        self,
        requests: Sequence["MigrationRequest"],
        store: Optional[FleetStateStore] = None,
    ) -> Tuple[Dict[str, object], List[Violation]]:
        """Outcome fields every drill result shares, over ``requests``
        and the placement in ``store`` (default: the orchestrator's),
        plus the end state's invariant violations.

        Each violation is also traced as an ``invariants``/``violation``
        record, so a clean run's trace carries none.
        """
        store = store if store is not None else self.orch.store
        statuses = [r.status for r in requests]
        violations = check(
            self.cluster,
            self.orch.journal,
            qemus=[q for record in store.jobs.values() for q in record.qemus],
            store=store,
            arbiter=self.orch.arbiter,
        )
        for v in violations:
            self.cluster.trace(
                "invariants", "violation", rule=v.rule, subject=v.subject,
                detail=v.detail,
            )
        return {
            "completed": statuses.count("completed"),
            "aborted": statuses.count("aborted"),
            "failed": statuses.count("failed"),
            "cancelled": statuses.count("cancelled"),
            "outcomes": [
                {
                    "request": r.request_id,
                    "job": r.job_id,
                    "kind": r.kind,
                    "status": r.status,
                    "attempts": r.attempts,
                    "duration_s": (
                        round(r.finished_at - r.submitted_at, 3)
                        if r.finished_at is not None
                        else None
                    ),
                    "error": r.error,
                }
                for r in requests
            ],
            # Lost: shut off with a dead host, or left parked by a crash.
            "lost_vms": sorted(v.subject for v in violations if v.rule == "lost"),
            "makespan_s": round(self.cluster.env.now - self.start_at, 3),
            "final_hosts": {
                job_id: [q.node.name for q in record.qemus]
                for job_id, record in store.jobs.items()
            },
        }, violations


def build_estate(
    jobs: int,
    vms_per_job: int,
    config: FleetConfig,
    spares: int = 0,
    wan_gbps: float = 1.0,
    tenants: int = 2,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
) -> Estate:
    """Cluster, orchestrator, and the provisioned jobs registered with it.

    Jobs register with :func:`~repro.testbed.busy_rank` as their rank
    body so a checkpoint restore can relaunch the SPMD program.
    """
    cluster = build_fleet_cluster(
        jobs * vms_per_job, spares=spares, wan_gbps=wan_gbps, seed=seed,
        tracer=tracer,
    )
    orch = FleetOrchestrator(cluster, config=config)
    estate = Estate(
        cluster, orch, _provision_fleet(cluster, jobs, vms_per_job, tenants),
        start_at=cluster.env.now + 1.0,
    )
    estate.register_jobs(orch)
    return estate


def run_fleet_scenario(jobs: int = 8, **options) -> "DrillResult":
    """The drain preset of :func:`repro.incident.scenario.run_drill`:
    ``jobs`` MPI jobs drained off the IB sub-cluster of an estate without
    spares (``options`` as for :func:`~repro.incident.scenario.run_drill`)."""
    from repro.incident.scenario import run_drill

    return run_drill(jobs=jobs, spares=0, **options)
