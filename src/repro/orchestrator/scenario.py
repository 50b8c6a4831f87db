"""The two-site estate every fleet drill runs on, and the fleet drains.

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

Every estate drill — these fleet drains, the controller-crash drain, and
the fiber-cut / host-kill drills in :mod:`repro.incident.scenario` —
shares one setup path (:func:`build_estate`: cluster, orchestrator,
provisioned and registered jobs, :meth:`Estate.submit_drain`) and one
outcome fold (:meth:`Estate.fold`: per-request rows, status counts,
lost VMs, final placement, makespan), which runs
:func:`repro.invariants.check` over the end state.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.hardware.cluster import Cluster
from repro.invariants import Violation, check
from repro.network.degradation import chaos_from_spec
from repro.orchestrator.executor import FleetConfig, FleetOrchestrator
from repro.orchestrator.state import FleetStateStore
from repro.recovery.recovery import RecoveryManager
from repro.sim.trace import Tracer
from repro.testbed import busy_rank, create_job, provision_vms
from repro.units import GiB, MiB, gbps
from repro.vmm.guest_memory import PageClass
from repro.vmm.policy import MigrationPolicy

if TYPE_CHECKING:  # pragma: no cover
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
    records = _provision_fleet(cluster, jobs, vms_per_job, tenants)
    for job_id, tenant, job, qemus, _ in records:
        orch.register_job(job_id, job, qemus, tenant=tenant, rank_main=busy_rank)
    return Estate(cluster, orch, records, start_at=cluster.env.now + 1.0)


@dataclass
class FleetScenarioResult:
    """Everything ``repro fleet`` prints and BENCH_fleet.json records."""

    sequenced: bool
    jobs: int
    vms_per_job: int
    makespan_s: float
    #: Migrations started by each scan that started any — the de-facto
    #: concurrency of each execution wave.
    wave_concurrency: List[int] = field(default_factory=list)
    deferred: Dict[str, int] = field(default_factory=dict)
    deferred_total: int = 0
    destination_swaps: int = 0
    completed: int = 0
    aborted: int = 0
    failed: int = 0
    outcomes: List[Dict[str, object]] = field(default_factory=list)
    final_hosts: Dict[str, List[str]] = field(default_factory=dict)
    cancelled: int = 0
    lost_vms: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def run_fleet_scenario(
    jobs: int = 8,
    vms_per_job: int = 1,
    sequenced: bool = True,
    wan_gbps: float = 1.0,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
    inject_site: Optional[str] = None,
    inject_nth: int = 1,
    inject_transient: bool = False,
    degrade_spec: Optional[str] = None,
    degrade_link: str = "wan:*",
    postcopy: str = "off",
    viability_floor_Bps: Optional[float] = None,
) -> FleetScenarioResult:
    """Drain ``jobs`` MPI jobs off the IB sub-cluster through the fleet
    orchestrator; return makespan + concurrency + deferral metrics.

    ``inject_site`` arms the deterministic fault injector (e.g.
    ``ninja.migration``) so fleet runs exercise the abort → blacklist →
    retry path; ``inject_transient`` makes the fault a retryable
    :class:`~repro.errors.QmpError` instead of a fatal one.

    Degraded-path knobs: ``degrade_spec`` is a
    :func:`~repro.network.degradation.parse_degrade_spec` schedule that
    starts (against links matching ``degrade_link``, default the WAN
    pipe) the moment the drain begins; ``postcopy`` feeds an adaptive
    :class:`~repro.vmm.policy.MigrationPolicy` to every Ninja sequence;
    ``viability_floor_Bps`` makes the orchestrator defer requests whose
    migration path has degraded below that bottleneck bandwidth.
    """
    config = FleetConfig() if sequenced else FleetConfig.naive()
    if viability_floor_Bps is not None:
        config.viability_floor_Bps = viability_floor_Bps
    estate = build_estate(
        jobs, vms_per_job, config, wan_gbps=wan_gbps, seed=seed, tracer=tracer,
    )
    cluster, orch = estate.cluster, estate.orch
    env = cluster.env
    if inject_site:
        from repro.errors import QmpError

        error = (
            QmpError("GenericError", "injected transient fault")
            if inject_transient
            else None  # default FaultInjectionError → abort + rollback
        )
        cluster.faults.arm(inject_site, error=error, nth=inject_nth)
    if postcopy != "off":
        orch.ninja.migration_policy = MigrationPolicy.adaptive(postcopy=postcopy)
    # Chaos clock starts with the drain, so ``t=`` offsets in the spec
    # are relative to the first submission.
    chaos = (
        chaos_from_spec(cluster, degrade_spec, link_pattern=degrade_link)
        if degrade_spec
        else None
    )
    estate.submit_drain(on_start=chaos.start if chaos is not None else None)
    env.run(until=estate.start_at + 0.001)  # requests now queued; loop running
    env.run(until=orch.all_settled())

    outcome, _ = estate.fold(orch.requests)
    return FleetScenarioResult(
        sequenced=sequenced,
        jobs=jobs,
        vms_per_job=vms_per_job,
        wave_concurrency=list(orch.wave_log),
        deferred=dict(orch.admission.stats.deferred),
        deferred_total=orch.admission.stats.deferred_total,
        destination_swaps=orch.swaps_applied,
        **outcome,
    )


@dataclass
class FleetCrashResult:
    """Everything ``repro fleet --crash-at-time`` prints."""

    jobs: int
    vms_per_job: int
    crash_requested_at: float
    crashed: bool = False
    crash_time: Optional[float] = None
    crash_error: str = ""
    recovered: bool = False
    recovery_epoch: Optional[int] = None
    #: Per-orphaned-sequence recovery outcomes.
    decisions: List[Dict[str, object]] = field(default_factory=list)
    reseeded: int = 0
    resubmitted: int = 0
    completed: int = 0
    aborted: int = 0
    failed: int = 0
    #: VMs lost at the end: still parked (the leak recovery must
    #: prevent) or shut off.
    lost_vms: List[str] = field(default_factory=list)
    makespan_s: float = 0.0
    final_hosts: Dict[str, List[str]] = field(default_factory=dict)
    cancelled: int = 0
    outcomes: List[Dict[str, object]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def run_fleet_crash_scenario(
    jobs: int = 4,
    vms_per_job: int = 1,
    crash_at_time: float = 5.0,
    recover: bool = True,
    wan_gbps: float = 1.0,
    tracer: Optional[Tracer] = None,
) -> FleetCrashResult:
    """Drain the fleet, kill the controller ``crash_at_time`` seconds
    after the drain starts, then (optionally) run crash recovery and a
    successor orchestrator that resumes the remaining work.

    The crash is armed at every ``controller.crash.*`` site with an
    ``at_time`` trigger: the first journal boundary any sequence reaches
    at or after the deadline kills the whole control plane; sibling
    sequences die at their own next boundary; orphaned precopy streams
    keep running.  Recovery then fences the epoch, replays the journal,
    rolls each orphan forward or back, and re-seeds reservations in a
    fresh :class:`~repro.orchestrator.state.FleetStateStore` for the
    successor orchestrator.
    """
    config = FleetConfig()
    estate = build_estate(
        jobs, vms_per_job, config, wan_gbps=wan_gbps, tracer=tracer,
    )
    cluster, orch = estate.cluster, estate.orch
    env = cluster.env
    cluster.faults.arm("controller.crash.*", at_time=estate.start_at + crash_at_time)
    estate.submit_drain()
    env.run(until=estate.start_at + 0.001)
    env.run(until=env.any_of([orch.crash_event, orch.all_settled()]))

    crash = {
        "jobs": jobs,
        "vms_per_job": vms_per_job,
        "crash_requested_at": crash_at_time,
        "crashed": orch.crashed,
        "crash_time": round(env.now - estate.start_at, 3) if orch.crashed else None,
        "crash_error": orch.crash_error,
    }
    if not orch.crashed or not recover:
        # Either the drain finished before the deadline, or the operator
        # asked to see the wreckage: report the world as-is.
        outcome, _ = estate.fold(orch.requests)
        return FleetCrashResult(**crash, **outcome)

    # Let the zombie sequences die at their next boundary before
    # reconciling, then hand the journal to recovery with a *fresh*
    # state store (the dead orchestrator's reservations died with it).
    env.run(until=orch.crash_drained())
    store = FleetStateStore(cluster)
    manager = RecoveryManager(cluster, orch.journal, store=store)
    box: List[object] = []

    def _recover():
        report = yield from manager.recover(reason=f"crash at t+{crash_at_time}s")
        box.append(report)

    done = env.process(_recover(), name="recovery")
    env.run(until=done)
    report = box[0]
    decisions = [
        {
            "mid": d.mid,
            "decision": d.decision,
            "phase_reached": d.phase_reached,
            "basis": d.basis,
            "actions": d.actions,
            "parked_after": d.parked_after,
            "error": d.error,
        }
        for d in report.decisions
    ]

    # Successor orchestrator: same journal, the recovery-seeded store.
    orch2 = FleetOrchestrator(cluster, config=config, state=store, journal=orch.journal)
    for job_id, tenant, job, qemus, _ in estate.records:
        orch2.register_job(job_id, job, qemus, tenant=tenant, rank_main=busy_rank)
    resumed = []
    for spec in report.resubmit:
        resumed.append(
            orch2.submit(
                str(spec["job"]),
                kind=str(spec.get("kind", "fallback")),
                priority=int(spec.get("priority", 0) or 0),
                dst_hosts=spec.get("dst_hosts"),  # type: ignore[arg-type]
            )
        )
    if resumed:
        env.run(until=orch2.all_settled())

    # Requests the dead orchestrator never finished are superseded by
    # the resubmissions; count outcomes over what actually terminated.
    finished = [r for r in orch.requests if r.terminal]
    outcome, _ = estate.fold([*finished, *resumed], store=store)
    return FleetCrashResult(
        **crash,
        recovered=report.clean,
        recovery_epoch=report.epoch,
        decisions=decisions,
        reseeded=report.reseeded,
        resubmitted=len(resumed),
        **outcome,
    )
