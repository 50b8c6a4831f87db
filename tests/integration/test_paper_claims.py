"""Integration tests: the paper's headline claims, end to end.

Claim 1 (abstract): "the proposed mechanism has no performance overhead
during normal operations."

Claim 2 (abstract): "MPI processes running on distributed VMs can migrate
between an Infiniband cluster and an Ethernet cluster without restarting
the processes."
"""

import pytest

from repro.analysis.experiments import (
    run_fig8_fallback_recovery,
    run_table2_scenario,
)
from repro.core.plan import MigrationPlan
from repro.core.scheduler import CloudScheduler
from repro.hardware.cluster import build_agc_cluster
from repro.testbed import create_job, provision_vms
from repro.units import GiB
from tests.conftest import drive


def test_claim1_no_overhead_during_normal_operation():
    """VMM-bypass IB in a VM performs like the raw fabric: an MPI
    transfer over the passthrough HCA matches the native link rate."""
    cluster = build_agc_cluster(ib_nodes=2, eth_nodes=0)
    vms = provision_vms(cluster, ["ib01", "ib02"], memory_bytes=4 * GiB)
    job = create_job(cluster, vms, procs_per_vm=1)
    drive(cluster.env, job.init(), name="init")
    env = cluster.env
    elapsed = {}

    def rank_main(proc, comm):
        t0 = env.now
        if comm.rank == 0:
            yield from comm.send(1, 3 * GiB, tag=1)
        else:
            yield from comm.recv(0, tag=1)
        elapsed[comm.rank] = env.now - t0
        return None

    job.launch(rank_main)
    env.run(until=job.wait())
    native = 3 * GiB / cluster.calibration.ib_link_Bps
    assert elapsed[1] == pytest.approx(native, rel=0.02)  # no virt tax


def test_claim2_no_process_restart_across_fallback_and_recovery():
    """Rank processes survive IB→Eth→IB with state intact."""
    cluster = build_agc_cluster(ib_nodes=2, eth_nodes=2)
    vms = provision_vms(cluster, ["ib01", "ib02"], memory_bytes=4 * GiB)
    job = create_job(cluster, vms, procs_per_vm=1)
    drive(cluster.env, job.init(), name="init")
    env = cluster.env
    progress = {0: [], 1: []}

    def rank_main(proc, comm):
        counter = 0  # process-local state: must survive migrations
        for _ in range(30):
            counter += 1
            yield proc.vm.compute(0.3, nthreads=1)
            yield from comm.barrier()
            progress[comm.rank].append(counter)
        return counter

    rank_processes = job.launch(rank_main)
    scheduler = CloudScheduler(cluster)

    def orchestrate(env):
        yield env.timeout(1.0)
        fb = MigrationPlan.build(cluster, vms, ["eth01", "eth02"], attach_ib=False)
        yield from scheduler.run_now("fallback", fb, job)
        rc = MigrationPlan.build(cluster, vms, ["ib01", "ib02"], attach_ib=True)
        yield from scheduler.run_now("recovery", rc, job)

    env.process(orchestrate(env))
    results = env.run(until=job.wait())
    # Same generator objects ran to completion: counters reach 30.
    assert progress[0][-1] == 30 and progress[1][-1] == 30
    # And the per-step sequences are gapless (no restart-from-zero).
    assert progress[0] == list(range(1, 31))


def test_transport_switch_is_transparent_to_ranks():
    """A message posted before the fallback is delivered after it, over
    the new transport, with no application involvement."""
    cluster = build_agc_cluster(ib_nodes=2, eth_nodes=2)
    vms = provision_vms(cluster, ["ib01", "ib02"], memory_bytes=4 * GiB)
    job = create_job(cluster, vms, procs_per_vm=1)
    drive(cluster.env, job.init(), name="init")
    env = cluster.env
    out = {}

    def rank_main(proc, comm):
        if comm.rank == 0:
            # Block in recv across the migration window.
            msg = yield from comm.recv(1, tag=5)
            out["value"] = msg.value
            out["at"] = env.now
        else:
            yield env.timeout(90.0)  # wait out the migration
            yield from proc.maybe_service_cr()
            yield from comm.send(0, 1 * GiB, tag=5, value="post-migration")
        return None

    job.launch(rank_main)
    scheduler = CloudScheduler(cluster)

    def orchestrate(env):
        yield env.timeout(1.0)
        plan = MigrationPlan.build(cluster, vms, ["eth01", "eth02"], attach_ib=False)
        yield from scheduler.run_now("fallback", plan, job)

    env.process(orchestrate(env))
    env.run(until=job.wait())
    assert out["value"] == "post-migration"
    assert job.proc(1).btl.route_name(job.proc(0)) == "tcp"


def test_table2_ordering_matches_paper():
    """hotplug(ib→ib) > hotplug(ib→eth) > hotplug(eth→ib) > hotplug(eth→eth);
    link-up ≈ 30 s iff the destination is InfiniBand."""
    rows = {
        (src, dst): run_table2_scenario(src, dst, nvms=1)
        for src in ("ib", "eth")
        for dst in ("ib", "eth")
    }
    hot = {k: v.hotplug_s for k, v in rows.items()}
    assert hot[("ib", "ib")] > hot[("ib", "eth")] > hot[("eth", "ib")] > hot[("eth", "eth")]
    assert rows[("ib", "ib")].linkup_s == pytest.approx(29.85, abs=1.0)
    assert rows[("eth", "ib")].linkup_s == pytest.approx(29.85, abs=1.0)
    assert rows[("ib", "eth")].linkup_s == pytest.approx(0.0, abs=0.1)
    assert rows[("eth", "eth")].linkup_s == pytest.approx(0.0, abs=0.1)


def test_fig8_shape_reduced():
    """Phase ordering (IB fastest) and the paper's 8-ppv exception."""
    a = run_fig8_fallback_recovery(procs_per_vm=1, iterations=8, migrate_every=2, nvms=2)
    b = run_fig8_fallback_recovery(procs_per_vm=8, iterations=8, migrate_every=2, nvms=2)
    means_a, means_b = a.series.phase_means(), b.series.phase_means()
    ib_label, tcp1 = "2 hosts (IB)", "1 hosts (TCP)"
    # IB phase is the fastest in both runs.
    assert means_a[ib_label] < min(v for k, v in means_a.items() if "TCP" in k)
    assert means_b[ib_label] < min(v for k, v in means_b.items() if "TCP" in k)
    # 8 ppv is faster on IB (the paper's headline for Fig. 8b)…
    assert means_b[ib_label] < means_a[ib_label]
    # …and three migrations happened in each run.
    assert len(a.migrations) == 3 and len(b.migrations) == 3


def test_total_overhead_independent_of_ppv():
    """Paper: "The total overhead is identical as the number of process
    per VM increases from 1 to 8" (within ~15 %)."""
    a = run_fig8_fallback_recovery(procs_per_vm=1, iterations=8, migrate_every=2, nvms=2)
    b = run_fig8_fallback_recovery(procs_per_vm=8, iterations=8, migrate_every=2, nvms=2)
    assert b.total_overhead_s == pytest.approx(a.total_overhead_s, rel=0.15)
