"""Ablation benchmarks for the design choices DESIGN.md calls out.

1. **Paused vs live migration** — SymVirt parks the guest, so migration
   is a single pass; migrating the same workload live re-transfers dirty
   pages across many precopy rounds (and still pays a long downtime).
2. **Uniform-page compression on/off** — compression is why Fig. 6's
   migration time ignores the memtest array size.
3. **``ompi_cr_continue_like_restart`` on/off** — without it, recovery
   migration leaves traffic on tcp although IB is back (Section III-C).
4. **RDMA-based migration (Section V)** — removing the 1.3 Gbps CPU cap
   shortens migration of data-heavy guests.
"""

from repro.analysis.experiments import run_fig6_memtest, run_fig8_fallback_recovery
from repro.analysis.report import render_table
from repro.hardware.cluster import build_agc_cluster
from repro.units import GiB
from repro.vmm.guest_memory import PageClass
from repro.vmm.qemu import QemuProcess

from benchmarks.conftest import run_once


# -- 1. paused vs live ---------------------------------------------------------


def _migrate_under_writer(paused: bool):
    """Migrate a VM hosting an active 2 GiB writer; park it first iff
    ``paused``."""
    from repro.guestos.process import MemoryWriter

    cluster = build_agc_cluster(ib_nodes=2, eth_nodes=0)
    env = cluster.env
    qemu = QemuProcess(cluster, cluster.node("ib01"), "vm", memory_bytes=8 * GiB)
    qemu.boot()
    writer = MemoryWriter(qemu.vm, 2 * GiB, page_class=PageClass.DATA)
    env.process(writer.run())
    out = {}

    def main(env):
        yield env.timeout(2.0)
        channel = qemu.vm.hypercall
        if paused:
            channel.register(1)

            def guest(env):
                yield from channel.symvirt_wait()

            env.process(guest(env))
            yield channel.wait_parked()
        job = qemu.migrate(cluster.node("ib02"))
        stats = yield job.done
        if paused:
            channel.symvirt_signal()
        writer.stop()
        out["stats"] = stats

    proc = env.process(main(env))
    env.run(until=proc)
    return out["stats"]


def test_ablation_paused_vs_live(benchmark, record_result):
    def compare():
        return {"paused": _migrate_under_writer(True), "live": _migrate_under_writer(False)}

    stats = run_once(benchmark, compare)
    paused, live = stats["paused"], stats["live"]
    record_result(
        "ablation_paused_vs_live",
        render_table(
            ["mode", "rounds", "wire [GiB]", "time [s]", "downtime [s]"],
            [
                ["paused (Ninja)", paused.iterations, f"{paused.wire_bytes/2**30:.1f}",
                 f"{paused.total_time_s:.1f}", f"{paused.downtime_s:.2f}"],
                ["live precopy", live.iterations, f"{live.wire_bytes/2**30:.1f}",
                 f"{live.total_time_s:.1f}", f"{live.downtime_s:.2f}"],
            ],
            title="Ablation 1 — paused (SymVirt) vs live migration under a dirtying guest",
        ),
    )
    assert paused.iterations <= 2
    assert live.iterations > paused.iterations
    assert live.wire_bytes > paused.wire_bytes * 1.5
    assert paused.downtime_s == 0.0


# -- 2. compression on/off ------------------------------------------------------------


def test_ablation_compression(benchmark, record_result):
    """With incompressible writes the same memtest migrates much slower
    and scales with the array size — the Fig. 6 flatness disappears."""

    def compare():
        out = {}
        for label, page_class in (("uniform", PageClass.UNIFORM), ("data", PageClass.DATA)):
            out[label] = {
                gib: run_fig6_memtest(gib * GiB, nvms=2, page_class=page_class)
                .breakdown.migration_s
                for gib in (2, 8)
            }
        return out

    times = run_once(benchmark, compare)
    record_result(
        "ablation_compression",
        render_table(
            ["array", "uniform (memtest) [s]", "incompressible [s]"],
            [
                ["2 GB", f"{times['uniform'][2]:.1f}", f"{times['data'][2]:.1f}"],
                ["8 GB", f"{times['uniform'][8]:.1f}", f"{times['data'][8]:.1f}"],
            ],
            title="Ablation 2 — uniform-page compression",
        ),
    )
    # Compressible: flat. Incompressible: grows with the array.
    assert times["uniform"][8] / times["uniform"][2] < 1.3
    assert times["data"][8] / times["data"][2] > 1.5
    assert times["data"][8] > times["uniform"][8]


# -- 3. continue_like_restart ------------------------------------------------------------


def test_ablation_continue_like_restart(benchmark, record_result):
    """Without the flag, the recovery leg never moves traffic back to IB,
    so the post-recovery iterations stay at TCP speed."""

    def compare():
        return {
            flag: run_fig8_fallback_recovery(
                procs_per_vm=1, iterations=14, migrate_every=4, nvms=2,
                continue_like_restart=flag,
            )
            for flag in (True, False)
        }

    results = run_once(benchmark, compare)
    ib_label = "2 hosts (IB)"

    def post_recovery_mean(res):
        recovery_step = sorted(res.migrations)[1]  # the second migration
        samples = [
            s
            for s in res.series.samples
            if s.phase == ib_label and s.overhead_s == 0 and s.step > recovery_step
        ]
        return sum(s.elapsed_s for s in samples) / len(samples)

    with_flag = post_recovery_mean(results[True])
    without_flag = post_recovery_mean(results[False])
    record_result(
        "ablation_continue_like_restart",
        f"Ablation 3 — post-recovery iteration time\n"
        f"  continue_like_restart=True : {with_flag:.1f} s (back on IB)\n"
        f"  continue_like_restart=False: {without_flag:.1f} s (stuck on TCP)",
    )
    assert without_flag > with_flag * 2.0


# -- 4. RDMA migration (Section V) --------------------------------------------------------


def test_ablation_rdma_migration(benchmark, record_result):
    """Section V: "RDMA-based migration can reduce CPU utilization and
    improve the throughput, compared with TCP/IP-based migration."""

    def compare():
        out = {}
        for rdma in (False, True):
            cluster = build_agc_cluster(ib_nodes=2, eth_nodes=0)
            env = cluster.env
            qemu = QemuProcess(cluster, cluster.node("ib01"), "vm", memory_bytes=20 * GiB)
            qemu.boot()
            qemu.vm.memory.write(1 * GiB, 8 * GiB, PageClass.DATA)
            for host in ("ib01", "ib02"):
                cluster.ib_fabric.force_active(cluster.ib_fabric.port(host))
            result = {}

            def main(env, qemu=qemu, cluster=cluster, result=result, rdma=rdma):
                job = qemu.migrate(cluster.node("ib02"), rdma=rdma)
                stats = yield job.done
                result["stats"] = stats

            proc = env.process(main(env))
            env.run(until=proc)
            out[rdma] = result["stats"]
        return out

    stats = run_once(benchmark, compare)
    tcp_t, rdma_t = stats[False].total_time_s, stats[True].total_time_s
    record_result(
        "ablation_rdma_migration",
        f"Ablation 4 — migration of a 20 GiB VM with 8 GiB data\n"
        f"  TCP  migration: {tcp_t:.1f} s (CPU-capped at 1.3 Gbps)\n"
        f"  RDMA migration: {rdma_t:.1f} s (offloaded transfer)",
    )
    assert rdma_t < tcp_t * 0.7
