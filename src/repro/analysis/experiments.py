"""Self-contained runners for each of the paper's experiments.

Every runner builds its own cluster + environment, runs the scenario to
completion, and returns a structured result.  Benchmarks regenerate the
paper's tables/figures by calling these; tests exercise reduced-scale
variants through the same code paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.metrics import IterationSeries, OverheadBreakdown
from repro.core.ninja import NinjaResult
from repro.core.plan import MigrationPlan
from repro.core.scheduler import CloudScheduler
from repro.errors import ReproError
from repro.hardware.cluster import build_agc_cluster
from repro.testbed import create_job, provision_vms
from repro.units import GB, GiB
from repro.vmm.guest_memory import PageClass
from repro.workloads.bcast_reduce import BcastReduceLoop
from repro.workloads.memtest import MemtestWorkload
from repro.workloads.npb import NPB_SUITE, NPB_SUITE_C, NpbSpec, NpbWorkload

# ---------------------------------------------------------------------------
# Table II — hotplug and link-up time of a self-migration
# ---------------------------------------------------------------------------


@dataclass
class Table2Result:
    """One row of Table II."""

    scenario: str
    hotplug_s: float
    linkup_s: float
    breakdown: OverheadBreakdown


def run_table2_scenario(
    src: str,
    dst: str,
    nvms: int = 8,
    seed: int = 0,
) -> Table2Result:
    """One Table II scenario: ``src``/``dst`` ∈ {"ib", "eth"}.

    "We did self-migration, where a VM migrates to the same physical
    node, with four combinations of interconnect settings" — VMs run the
    2 GB memtest; the source setting decides whether the HCA is attached
    before the sequence, the destination setting whether it is attached
    after.
    """
    for arg in (src, dst):
        if arg not in ("ib", "eth"):
            raise ReproError(f"scenario sides must be 'ib' or 'eth', got {arg!r}")
    # All nodes IB-cabled so every combination runs on the same hardware.
    cluster = build_agc_cluster(ib_nodes=nvms, eth_nodes=0, seed=seed)
    env = cluster.env
    hosts = [n.name for n in cluster.ib_nodes()][:nvms]
    out: Dict[str, NinjaResult] = {}

    def main():
        vms = provision_vms(cluster, hosts, attach_ib=(src == "ib"))
        job = create_job(cluster, vms, procs_per_vm=1)
        yield from job.init()
        workload = MemtestWorkload(array_bytes=2 * GiB, max_passes=1000)
        job.launch(workload.rank_main)
        yield env.timeout(5.0)  # reach steady state
        scheduler = CloudScheduler(cluster)
        plan = MigrationPlan.build(
            cluster, vms, hosts, attach_ib=(dst == "ib"), label=f"{src}->{dst}"
        )
        result = yield from scheduler.run_now("table2", plan, job)
        out["result"] = result

    proc = env.process(main())
    # The memtest writers run forever; stop at the orchestrator's return.
    env.run(until=proc)
    result = out["result"]
    return Table2Result(
        scenario=f"{src}->{dst}",
        hotplug_s=result.breakdown.hotplug_s,
        linkup_s=result.breakdown.linkup_s,
        breakdown=result.breakdown,
    )


def run_table2_all(nvms: int = 8) -> List[Table2Result]:
    """All four Table II scenarios."""
    return [
        run_table2_scenario(src, dst, nvms=nvms)
        for src, dst in (("ib", "ib"), ("ib", "eth"), ("eth", "ib"), ("eth", "eth"))
    ]


# ---------------------------------------------------------------------------
# Figure 6 — Ninja migration overhead on memtest vs array size
# ---------------------------------------------------------------------------


@dataclass
class Fig6Result:
    """One bar of Figure 6."""

    array_bytes: int
    breakdown: OverheadBreakdown
    migration_stats_wire_bytes: float


def run_fig6_memtest(
    array_bytes: int,
    nvms: int = 8,
    page_class: PageClass = PageClass.UNIFORM,
) -> Fig6Result:
    """One Figure 6 data point: node-to-node IB→IB Ninja migration under
    a running memtest of ``array_bytes``.

    Both source and destination are InfiniBand nodes (Section IV-B2:
    "both the source and the destination clusters use Infiniband only"),
    so the breakdown contains detach + migration + attach + link-up.
    """
    cluster = build_agc_cluster(ib_nodes=2 * nvms, eth_nodes=0)
    env = cluster.env
    src_hosts = [f"ib{i + 1:02d}" for i in range(nvms)]
    dst_hosts = [f"ib{i + 1 + nvms:02d}" for i in range(nvms)]
    out: Dict[str, NinjaResult] = {}

    def main():
        vms = provision_vms(cluster, src_hosts, memory_bytes=20 * GiB)
        job = create_job(cluster, vms, procs_per_vm=1)
        yield from job.init()
        workload = MemtestWorkload(
            array_bytes=array_bytes, max_passes=100_000, page_class=page_class
        )
        job.launch(workload.rank_main)
        # Let the writer cover the array at least once before migrating.
        warmup = max(array_bytes / cluster.calibration.mem_write_Bps * 1.5, 5.0)
        yield env.timeout(warmup)
        scheduler = CloudScheduler(cluster)
        plan = MigrationPlan.build(
            cluster, vms, dst_hosts, attach_ib=True, label="fig6"
        )
        result = yield from scheduler.run_now("fig6", plan, job)
        out["result"] = result

    proc = env.process(main())
    env.run(until=proc)
    result = out["result"]
    wire = sum(s.wire_bytes for s in result.migration_stats.values())
    return Fig6Result(
        array_bytes=array_bytes, breakdown=result.breakdown, migration_stats_wire_bytes=wire
    )


# ---------------------------------------------------------------------------
# Figure 7 — NPB class D, baseline vs proposed
# ---------------------------------------------------------------------------


@dataclass
class Fig7Result:
    """One benchmark pair of Figure 7."""

    bench: str
    class_name: str
    baseline_s: float
    proposed_s: float
    breakdown: OverheadBreakdown

    @property
    def overhead_s(self) -> float:
        return self.proposed_s - self.baseline_s


def _npb_spec(bench: str, class_name: str) -> NpbSpec:
    suite = {"D": NPB_SUITE, "C": NPB_SUITE_C}[class_name]
    try:
        return suite[bench.upper()]
    except KeyError:
        raise ReproError(f"unknown NPB benchmark {bench!r}") from None


#: Figure 7's job: 8 VMs of 8 ranks each, moved to 8 other IB hosts.
_FIG7_VMS = 8
_FIG7_PROCS_PER_VM = 8


def run_fig7_npb(
    bench: str,
    class_name: str = "D",
    migrate_after_s: float = 180.0,
    seed: int = 0,
) -> Fig7Result:
    """One Figure 7 pair: NPB ``bench`` with and without one Ninja
    migration "at three minutes after each benchmark start time".
    """
    spec = _npb_spec(bench, class_name)

    def _run(with_migration: bool):
        cluster = build_agc_cluster(ib_nodes=2 * _FIG7_VMS, eth_nodes=0, seed=seed)
        env = cluster.env
        src_hosts = [f"ib{i + 1:02d}" for i in range(_FIG7_VMS)]
        dst_hosts = [f"ib{i + 1 + _FIG7_VMS:02d}" for i in range(_FIG7_VMS)]
        out: Dict[str, object] = {}

        def main():
            vms = provision_vms(cluster, src_hosts)
            job = create_job(cluster, vms, procs_per_vm=_FIG7_PROCS_PER_VM)
            yield from job.init()
            workload = NpbWorkload(spec, procs_per_vm=_FIG7_PROCS_PER_VM)
            t0 = env.now
            job.launch(workload.rank_main)
            trigger = None
            if with_migration:
                scheduler = CloudScheduler(cluster)
                plan = MigrationPlan.build(
                    cluster, vms, dst_hosts, attach_ib=True, label="fig7"
                )
                trigger = scheduler.schedule(t0 + migrate_after_s, "fig7", plan, job)
            yield job.wait()
            out["elapsed"] = env.now - t0
            if trigger is not None:
                if trigger.result is None and trigger.done is not None and not trigger.done.triggered:
                    # Migration still mid-flight when ranks finished: wait.
                    yield trigger.done
                out["ninja"] = trigger.result
                out["trigger_error"] = trigger.error

        proc = env.process(main())
        env.run(until=proc)
        if with_migration and out.get("ninja") is None:
            raise ReproError(
                f"Fig7 {bench}: migration never ran "
                f"(job finished before t+{migrate_after_s}s? error={out.get('trigger_error')})"
            )
        return out

    baseline = _run(False)
    proposed = _run(True)
    ninja: NinjaResult = proposed["ninja"]  # type: ignore[assignment]
    return Fig7Result(
        bench=spec.name,
        class_name=spec.class_name,
        baseline_s=float(baseline["elapsed"]),
        proposed_s=float(proposed["elapsed"]),
        breakdown=ninja.breakdown,
    )


# ---------------------------------------------------------------------------
# Figure 8 — fallback and recovery migration
# ---------------------------------------------------------------------------


@dataclass
class Fig8Result:
    """One panel of Figure 8 (a: 1 proc/VM, b: 8 procs/VM)."""

    procs_per_vm: int
    series: IterationSeries
    migrations: Dict[int, NinjaResult] = field(default_factory=dict)

    @property
    def total_overhead_s(self) -> float:
        return sum(r.total_s for r in self.migrations.values())


def run_fig8_fallback_recovery(
    procs_per_vm: int = 1,
    iterations: int = 40,
    migrate_every: int = 10,
    nvms: int = 4,
    continue_like_restart: bool = True,
) -> Fig8Result:
    """The Figure 8 scenario:

    4 hosts (IB) → 2 hosts (TCP) → 4 hosts (IB) → 4 hosts (TCP),
    with a Ninja migration launched every ``migrate_every`` steps.
    """
    cluster = build_agc_cluster(ib_nodes=nvms, eth_nodes=nvms)
    env = cluster.env
    ib_hosts = [f"ib{i + 1:02d}" for i in range(nvms)]
    eth_hosts = [f"eth{i + 1:02d}" for i in range(nvms)]

    state = {"label": f"{nvms} hosts (IB)"}
    migrations: Dict[int, NinjaResult] = {}

    def main():
        vms = provision_vms(cluster, ib_hosts)
        from repro.mpi.ft import FtSettings

        ft = FtSettings(continue_like_restart=continue_like_restart)
        job = create_job(cluster, vms, procs_per_vm=procs_per_vm, ft=ft)
        yield from job.init()
        scheduler = CloudScheduler(cluster)

        # The three legs of the scenario, keyed by the step *after* which
        # they fire (the migration lands inside step+1, as in the paper).
        legs = {
            migrate_every: (
                "fallback",
                lambda: MigrationPlan.build(
                    cluster, vms, eth_hosts[: max(nvms // 2, 1)],
                    attach_ib=False, label=f"{max(nvms // 2, 1)} hosts (TCP)",
                ),
                f"{max(nvms // 2, 1)} hosts (TCP)",
            ),
            2 * migrate_every: (
                "recovery",
                lambda: MigrationPlan.build(
                    cluster, vms, ib_hosts, attach_ib=True, label=f"{nvms} hosts (IB)"
                ),
                f"{nvms} hosts (IB)",
            ),
            3 * migrate_every: (
                "fallback-spread",
                lambda: MigrationPlan.build(
                    cluster, vms, eth_hosts, attach_ib=False, label=f"{nvms} hosts (TCP)"
                ),
                f"{nvms} hosts (TCP)",
            ),
        }

        def on_step(step: int, elapsed: float) -> None:
            leg = legs.get(step)
            if leg is None:
                return
            reason, plan_factory, new_label = leg

            def _runner():
                result = yield from scheduler.run_now(reason, plan_factory(), job)
                migrations[step + 1] = result
                state["label"] = new_label

            env.process(_runner(), name=f"fig8.{reason}")

        workload = BcastReduceLoop(
            iterations=iterations,
            bytes_per_node=8 * GB,
            procs_per_vm=procs_per_vm,
            on_step=on_step,
            phase_label=lambda: state["label"],
        )
        job.launch(workload.rank_main)
        yield job.wait()
        # Annotate migration overheads onto the series.
        for step, result in migrations.items():
            for sample in workload.series.samples:
                if sample.step == step:
                    sample.overhead_s = result.total_s
        state["series"] = workload.series

    proc = env.process(main())
    env.run(until=proc)
    series: IterationSeries = state["series"]  # type: ignore[assignment]
    series.label = f"fig8 {procs_per_vm} proc(s)/VM"
    return Fig8Result(procs_per_vm=procs_per_vm, series=series, migrations=migrations)
