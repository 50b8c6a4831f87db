"""Heterogeneous-fabric study: IB vs Myrinet vs Ethernet as destinations.

Section VI claims device generality ("no limitation in supported
devices, e.g., Myrinet"); this benchmark quantifies what the destination
fabric costs a migrating job:

* Ninja overhead per destination (the IB subnet manager's ~30 s link-up
  dominates recovery onto IB; the Myrinet FMA maps in ~2 s; Ethernet has
  no bypass attach at all);
* steady-state iteration time per fabric (openib > mx > tcp bandwidth).
"""

import pytest

from repro.analysis.report import render_table
from repro.core.ninja import NinjaMigration
from repro.core.plan import MigrationPlan
from repro.hardware.cluster import build_heterogeneous_cluster
from repro.testbed import create_job, provision_vms
from repro.units import GB
from repro.workloads.bcast_reduce import BcastReduceLoop

from benchmarks.conftest import run_once


def _tour():
    """One job visits Ethernet → Myrinet → IB; measure each leg."""
    cluster = build_heterogeneous_cluster(ib_nodes=2, myrinet_nodes=2, eth_nodes=2)
    env = cluster.env
    # Start on Ethernet so each leg is a "recovery" onto a bypass fabric.
    vms = provision_vms(cluster, ["eth01", "eth02"], attach_ib=False)
    job = create_job(cluster, vms, procs_per_vm=1)
    out = {"legs": {}, "iters": {}}

    state = {"label": "ethernet"}
    workload = BcastReduceLoop(
        iterations=200, bytes_per_node=4 * GB, procs_per_vm=1,
        phase_label=lambda: state["label"],
    )

    def main():
        yield from job.init()
        job.launch(workload.rank_main)
        ninja = NinjaMigration(cluster)
        yield env.timeout(30.0)
        for label, dst in (
            ("myrinet", ["myri01", "myri02"]),
            ("infiniband", ["ib01", "ib02"]),
        ):
            plan = MigrationPlan.build(cluster, vms, dst, attach_ib=None, label=label)
            result = yield from ninja.execute(job, plan)
            state["label"] = label
            out["legs"][label] = result.breakdown
            yield env.timeout(60.0)

    proc = env.process(main())
    env.run(until=proc)
    # Best-of-phase: robust to the migration spikes inside each phase.
    out["iters"] = workload.series.phase_minimums()
    return out


def test_fabric_tour(benchmark, record_result):
    out = run_once(benchmark, _tour)
    legs, iters = out["legs"], out["iters"]
    rows = []
    for label in ("myrinet", "infiniband"):
        b = legs[label]
        rows.append([
            f"→ {label}",
            f"{b.hotplug_s:.2f}",
            f"{b.migration_s:.1f}",
            f"{b.linkup_s:.1f}",
            f"{iters.get(label, float('nan')):.1f}",
        ])
    rows.append(["(ethernet start)", "-", "-", "-", f"{iters['ethernet']:.1f}"])
    record_result(
        "heterogeneous_fabrics",
        render_table(
            ["destination", "hotplug [s]", "migration [s]", "linkup [s]",
             "iteration [s]"],
            rows,
            title="Heterogeneous fabrics — recovery cost and steady-state speed",
        ),
    )
    # Link-up: FMA seconds vs subnet-manager ~30 s.
    assert legs["myrinet"].linkup_s < 3.0
    assert legs["infiniband"].linkup_s == pytest.approx(29.85, abs=1.5)
    # Steady state: openib > mx > tcp.
    assert iters["infiniband"] < iters["myrinet"] < iters["ethernet"]