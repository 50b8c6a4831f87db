"""Degraded-WAN migration: precopy vs postcopy-fallback under chaos.

Migrates a 4 GiB guest with a hot 512 MiB working set (dirtied faster
than the 1.3 Gbps migration thread can ship it) across three link
conditions — clean, lossy (50 % packet loss → TCP goodput collapse), and
collapsing (bandwidth cut to 5 %) — once with plain bounded precopy and
once with the adaptive policy (auto-converge throttling + postcopy
fallback).  Plain precopy never converges and pays a seconds-long forced
stop-and-copy; the adaptive policy keeps the downtime at the switchover
blob regardless of how sick the link is.

Writes ``BENCH_degraded.json`` (repo root) with total time and downtime
for every cell of the matrix.
"""

from __future__ import annotations

import json
import pathlib

from repro.guestos.process import MemoryWriter
from repro.hardware.cluster import build_agc_cluster
from repro.network.degradation import DegradationEvent, NetworkChaos
from repro.units import GiB, MiB
from repro.vmm.guest_memory import PageClass
from repro.vmm.policy import MigrationPolicy
from repro.vmm.qemu import QemuProcess

from benchmarks.conftest import run_once

ARTIFACT = pathlib.Path(__file__).parent.parent / "BENCH_degraded.json"

#: Link conditions: name → degradation events applied before the run.
CONDITIONS = {
    "clean": (),
    "lossy": (DegradationEvent(at_time=0.0, kind="loss", value=0.5),),
    "collapsing": (DegradationEvent(at_time=0.0, kind="bw", value=0.05),),
}

POLICIES = {
    "precopy": MigrationPolicy(max_iterations=10),
    "postcopy-fallback": MigrationPolicy.adaptive(
        postcopy="fallback", throttle_max=0.5, non_convergence_rounds=1
    ),
}


def _migrate_under(condition: str, policy_name: str):
    cluster = build_agc_cluster(ib_nodes=2, eth_nodes=0)
    env = cluster.env
    qemu = QemuProcess(cluster, cluster.node("ib01"), "vm1", memory_bytes=4 * GiB)
    qemu.boot()
    qemu.vm.memory.write(1 * GiB, 1 * GiB, PageClass.DATA)
    writer = MemoryWriter(
        qemu.vm, 512 * MiB, page_class=PageClass.DATA,
        chunk_bytes=2 * MiB, write_Bps=2 * GiB,
    )
    env.process(writer.run())
    events = CONDITIONS[condition]
    if events:
        NetworkChaos(cluster, list(events)).start()

    def main(env):
        yield env.timeout(1.0)
        job = qemu.migrate(cluster.node("ib02"), policy=POLICIES[policy_name])
        stats = yield job.done
        return stats

    process = env.process(main(env))
    stats = env.run(until=process)
    writer.stop()
    return {
        "total_time_s": round(stats.total_time_s, 3),
        "downtime_s": round(stats.downtime_s, 4),
        "mode": stats.mode,
        "rounds": stats.iterations,
        "wire_GiB": round(stats.wire_bytes / GiB, 3),
        "throttle_kicks": stats.auto_converge_kicks,
        "sla_violated": stats.sla_violated,
    }


def test_degraded_wan_matrix(benchmark, record_result):
    def experiment():
        return {
            condition: {
                policy_name: _migrate_under(condition, policy_name)
                for policy_name in POLICIES
            }
            for condition in CONDITIONS
        }

    matrix = run_once(benchmark, experiment)

    for condition, cells in matrix.items():
        # Plain precopy on a non-convergent guest always blows the 30 ms
        # downtime budget — on every link condition.
        assert cells["precopy"]["sla_violated"], condition
        assert cells["precopy"]["downtime_s"] > 1.0, condition
        # The adaptive policy escalates to postcopy and keeps the
        # downtime at the switchover blob.
        assert cells["postcopy-fallback"]["mode"] == "postcopy", condition
        assert cells["postcopy-fallback"]["downtime_s"] < 0.5, condition

    payload = {
        "scenario": (
            "4 GiB guest, hot 512 MiB working set dirtied at 2 GiB/s, "
            "10 GbE path degraded per condition"
        ),
        "conditions": {
            "lossy": "50% packet loss (TCP goodput model)",
            "collapsing": "bandwidth collapsed to 5%",
        },
        "matrix": matrix,
    }
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")

    lines = ["degraded-WAN migration — total time / downtime [s]"]
    for condition, cells in matrix.items():
        pre, post = cells["precopy"], cells["postcopy-fallback"]
        lines.append(
            f"  {condition:<11} precopy {pre['total_time_s']:8.1f} / "
            f"{pre['downtime_s']:6.2f}   postcopy-fallback "
            f"{post['total_time_s']:8.1f} / {post['downtime_s']:6.4f}"
        )
    lines.append(f"[artifact: {ARTIFACT.name}]")
    record_result("degraded_wan", "\n".join(lines))
