"""Power-aware placement study (Section VII future work).

"We plan to demonstrate … an intelligent VM placement in a data center
consists of heterogeneous racks for power saving."  The scenario follows
the paper's own motivation (Section II-A cites the LHC grid study: "50 %
of the jobs use less than 2 % of the CPU-time"): an **under-utilized**
job — long idle waits, short compute bursts — runs the same work twice:

* **spread** — 4 VMs across the InfiniBand rack (fast, power-hungry);
* **power-saving** — the placer consolidates onto the Ethernet rack and
  the IB rack (blades + switch) parks.

Reported: makespan, mean power, and energy.  For under-utilized jobs the
consolidation barely stretches the makespan while roughly halving power;
a second check documents the inverse: consolidating a *compute-bound*
job backfires on energy (it runs much longer under overcommit) — the
placement policy must know the workload.
"""

from repro.analysis.report import render_table
from repro.core.power import PowerAwarePlacer, PowerMeter
from repro.core.scheduler import CloudScheduler
from repro.hardware.cluster import build_agc_cluster
from repro.testbed import create_job, provision_vms
from repro.units import GiB, MiB

from benchmarks.conftest import run_once

ITERATIONS = 60


def _underutilized_loop(iterations):
    """LHC-style job: ~10 % CPU duty cycle, light communication."""

    def rank_main(proc, comm):
        for _ in range(iterations):
            yield proc.vm.compute(0.3, nthreads=1)
            peer = comm.rank ^ 1
            if peer < comm.size:
                yield from comm.sendrecv(peer, 1 * MiB, peer, tag=3)
            yield from proc.maybe_service_cr()
            yield env_sleep(proc, 2.7)
        yield from comm.barrier()
        return None

    return rank_main


def env_sleep(proc, seconds):
    return proc.env.timeout(seconds)


def _compute_bound_loop(iterations):
    def rank_main(proc, comm):
        for _ in range(iterations):
            yield proc.vm.compute(1.0, nthreads=1)
            yield from comm.barrier()
        return None

    return rank_main


def _run(consolidate: bool, workload_factory, ppv: int):
    cluster = build_agc_cluster(ib_nodes=4, eth_nodes=4)
    env = cluster.env
    vms = provision_vms(cluster, ["ib01", "ib02", "ib03", "ib04"],
                        memory_bytes=8 * GiB)
    job = create_job(cluster, vms, procs_per_vm=ppv)
    out = {}

    def main():
        yield from job.init()
        meter = PowerMeter(cluster, period_s=2.0).start()
        t0 = env.now
        job.launch(workload_factory(ITERATIONS))
        if consolidate:
            yield env.timeout(5.0)
            placer = PowerAwarePlacer(cluster, max_overcommit=2.0)
            plan = placer.plan(vms)
            scheduler = CloudScheduler(cluster)
            yield from scheduler.run_now("power", plan, job)
        yield job.wait()
        meter.stop()
        out["makespan"] = env.now - t0
        out["energy_mj"] = meter.energy_j / 1e6
        out["mean_w"] = meter.mean_power_w()

    proc = env.process(main())
    env.run(until=proc)
    return out


def test_power_aware_consolidation_underutilized(benchmark, record_result):
    def compare():
        return {
            "spread (IB rack)": _run(False, _underutilized_loop, ppv=1),
            "power-saving (Eth rack)": _run(True, _underutilized_loop, ppv=1),
        }

    results = run_once(benchmark, compare)
    rows = [
        [label, f"{r['makespan']:.0f}", f"{r['mean_w']:.0f}", f"{r['energy_mj']:.2f}"]
        for label, r in results.items()
    ]
    record_result(
        "power_placement",
        render_table(
            ["placement", "makespan [s]", "mean power [W]", "energy [MJ]"],
            rows,
            title="Power-aware placement — under-utilized job (LHC-style)",
        ),
    )
    spread = results["spread (IB rack)"]
    saving = results["power-saving (Eth rack)"]
    # Consolidation roughly halves the power draw...
    assert saving["mean_w"] < spread["mean_w"] * 0.65
    # ...with only a mild makespan stretch for an idle-dominated job...
    assert saving["makespan"] < spread["makespan"] * 1.5
    # ...so it wins on energy.
    assert saving["energy_mj"] < spread["energy_mj"]


def test_power_consolidation_backfires_for_compute_bound(benchmark, record_result):
    """The counterexample: a compute-bound 32-rank job consolidated onto
    overcommitted hosts runs so much longer that it *loses* energy —
    placement policy must be workload-aware."""

    def compare():
        return {
            "spread": _run(False, _compute_bound_loop, ppv=8),
            "consolidated": _run(True, _compute_bound_loop, ppv=8),
        }

    results = run_once(benchmark, compare)
    record_result(
        "power_placement_backfire",
        render_table(
            ["placement", "makespan [s]", "energy [MJ]"],
            [
                [label, f"{r['makespan']:.0f}", f"{r['energy_mj']:.2f}"]
                for label, r in results.items()
            ],
            title="Power placement backfire — compute-bound job",
        ),
    )
    assert results["consolidated"]["makespan"] > results["spread"]["makespan"] * 2
    assert results["consolidated"]["energy_mj"] > results["spread"]["energy_mj"]
