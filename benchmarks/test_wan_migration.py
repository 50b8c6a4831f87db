"""Wide-area migration study (Section VII future work + Section V caveat).

Section VII: "We plan to demonstrate Ninja migration on large scale
clusters according to more realistic scenarios, including wide area
migration of VMs for disaster recovery."  Section V flags the open
issue: "The migration time may significantly increase as the number of
hosts increases due to network congestion."

Two sweeps over a two-site topology (IB primary site, Ethernet backup
site, one shared WAN pipe):

* migration time vs WAN bandwidth at a fixed fleet size;
* migration time vs fleet size at fixed WAN bandwidth — the congestion
  effect the paper predicts (the single-enclosure experiments cannot
  show it; the WAN pipe makes the shared bottleneck explicit).
"""

import pytest

from repro.analysis.report import render_table
from repro.core.plan import MigrationPlan
from repro.core.scheduler import CloudScheduler
from repro.hardware.cluster import build_two_site_cluster
from repro.testbed import busy_rank, create_job, provision_vms
from repro.units import GiB, gbps
from repro.vmm.guest_memory import PageClass

from benchmarks.conftest import run_once


def _wan_fallback(nvms: int, wan_gbps: float, data_gib: int = 4):
    cluster = build_two_site_cluster(
        primary_nodes=nvms, backup_nodes=nvms, wan_bandwidth_Bps=gbps(wan_gbps)
    )
    env = cluster.env
    hosts = [f"ib{i + 1:02d}" for i in range(nvms)]
    dst = [f"eth{i + 1:02d}" for i in range(nvms)]
    vms = provision_vms(cluster, hosts, memory_bytes=8 * GiB)
    for qemu in vms:
        qemu.vm.memory.write(1 * GiB, data_gib * GiB, PageClass.DATA)
    job = create_job(cluster, vms, procs_per_vm=1)
    out = {}

    def main():
        yield from job.init()
        job.launch(busy_rank)
        scheduler = CloudScheduler(cluster)
        plan = MigrationPlan.build(cluster, vms, dst, attach_ib=False, label="wan")
        result = yield from scheduler.run_now("dr", plan, job)
        out["result"] = result

    proc = env.process(main())
    env.run(until=proc)
    return out["result"]


def test_wan_bandwidth_sweep(benchmark, record_result):
    def sweep():
        return {g: _wan_fallback(nvms=2, wan_gbps=g).breakdown.migration_s
                for g in (0.5, 1.0, 2.5, 10.0)}

    times = run_once(benchmark, sweep)
    record_result(
        "wan_bandwidth",
        render_table(
            ["WAN [Gbps]", "migration [s]"],
            [[f"{g}", f"{t:.1f}"] for g, t in times.items()],
            title="Wide-area migration — 2 VMs (4 GiB data each) vs WAN bandwidth",
        ),
    )
    # Monotone: more WAN bandwidth, faster evacuation, until the
    # per-stream 1.3 Gbps CPU cap dominates.
    assert times[0.5] > times[1.0] > times[2.5]
    assert times[2.5] >= times[10.0]


def test_wan_congestion_with_fleet_size(benchmark, record_result):
    def sweep():
        return {n: _wan_fallback(nvms=n, wan_gbps=1.0).breakdown.migration_s
                for n in (1, 2, 4)}

    times = run_once(benchmark, sweep)
    record_result(
        "wan_congestion",
        render_table(
            ["VMs", "migration [s]"],
            [[str(n), f"{t:.1f}"] for n, t in times.items()],
            title="Wide-area migration — fleet size vs shared 1 Gbps WAN",
        ),
    )
    # The paper's predicted congestion: evacuation time grows with the
    # number of simultaneously migrating VMs when the pipe is shared.
    assert times[2] > times[1] * 1.3
    assert times[4] > times[2] * 1.3
