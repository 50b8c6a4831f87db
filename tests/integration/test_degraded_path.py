"""Acceptance: degraded-path migration end to end.

The ISSUE's headline scenario: a guest whose dirty rate exceeds the
link's goodput, migrating over a link that also drops mid-stream, must
still complete under the ``fallback`` postcopy policy — with bounded
downtime, and resuming from the received-page bitmap after the drop
(no full-RAM re-send)."""

from repro.guestos.process import MemoryWriter
from repro.network.degradation import DegradationEvent, NetworkChaos
from repro.sim.trace import Tracer
from repro.units import GiB, MiB, gbps
from repro.vmm.guest_memory import PageClass
from repro.vmm.policy import MigrationPolicy
from repro.vmm.qemu import QemuProcess
from tests.conftest import drive


def test_nonconvergent_migration_survives_stream_drop(cluster):
    """Dirty rate ≫ goodput + a mid-drain outage: throttle, escalate to
    postcopy, pause on the drop, recover from the bitmap, complete."""
    env = cluster.env
    qemu = QemuProcess(cluster, cluster.node("ib01"), "vm1", memory_bytes=4 * GiB)
    qemu.boot()
    qemu.vm.memory.write(1 * GiB, 1 * GiB, PageClass.DATA)
    writer = MemoryWriter(
        qemu.vm, 512 * MiB, page_class=PageClass.DATA,
        chunk_bytes=2 * MiB, write_Bps=2 * GiB,  # ≫ the 1.3 Gbps stream
    )
    env.process(writer.run())
    policy = MigrationPolicy.adaptive(
        postcopy="fallback", throttle_max=0.5, non_convergence_rounds=1
    )
    job = qemu.migrate(cluster.node("ib02"), policy=policy)

    wire_at_drop = []

    def drop_after_switchover(env):
        # Deterministic mid-drain outage: wait for the switchover, let the
        # drain run briefly, then take the source's link down for 3 s.
        while job.stats.mode != "postcopy":
            yield env.timeout(0.2)
        yield env.timeout(0.5)
        wire_at_drop.append(job.stats.wire_bytes)
        chaos = NetworkChaos(
            cluster,
            [DegradationEvent(at_time=0.0, kind="drop", duration_s=3.0,
                              link_pattern="ib01*")],
        )
        chaos.start()

    env.process(drop_after_switchover(env))
    stats = drive(env, _wait(job))
    writer.stop()

    assert stats.status == "completed"
    assert stats.mode == "postcopy"
    assert stats.auto_converge_kicks >= 1  # throttling was tried first
    assert stats.stream_drops >= 1
    assert stats.recoveries >= 1
    # Bounded downtime: the switchover blob, not the un-convergent dirty
    # set (which alone would cost seconds at 1.3 Gbps).
    assert stats.downtime_s < 0.5
    # Bitmap resume: what crossed the wire after the drop is far less
    # than a full RAM re-send.
    memory = qemu.vm.memory
    cal = qemu.calibration
    dup, data = memory.dup_and_data_pages()
    full_wire = dup * cal.dup_page_wire_bytes + data * (
        memory.page_size + cal.page_header_bytes
    )
    post_recover_bytes = stats.wire_bytes - wire_at_drop[0]
    assert post_recover_bytes < full_wire
    assert qemu.node.name == "ib02"
    assert not qemu.vm.memory.dirty_logging
    assert qemu.vm.cpu_throttle == 0.0


def _wait(job):
    stats = yield job.done
    return stats


def test_fleet_defers_degraded_wan_until_it_heals():
    """The fleet orchestrator holds requests whose path bottleneck sits
    below the viability floor and re-probes until the chaos expires."""
    from repro.orchestrator.scenario import run_fleet_scenario

    tracer = Tracer()
    result = run_fleet_scenario(
        jobs=2,
        vms_per_job=1,
        wan_gbps=1.0,
        tracer=tracer,
        degrade_spec="bw=0.01@t=0+60",
        degrade_link="wan:*",
        postcopy="fallback",
        viability_floor_Bps=gbps(0.5),
    )
    # One job drains locally at once; the WAN-bound job is deferred as
    # degraded until the bandwidth collapse expires, then completes.
    assert result.completed == result.jobs
    assert result.aborted == result.failed == 0
    assert result.deferred.get("degraded-link", 0) >= 1
    assert tracer.count("fleet", "degraded_wait") >= 1
    # The heal gate actually delayed the drain past the 60 s collapse.
    assert result.makespan_s > 60.0


def test_fleet_fails_permanently_degraded_request():
    """A path that never heals within ``DEGRADED_MAX_WAIT_S`` fails the
    request instead of spinning forever."""
    from repro.orchestrator.executor import (
        DEGRADED_MAX_WAIT_S,
        DEGRADED_RECHECK_S,
        FleetConfig,
        FleetOrchestrator,
    )
    from repro.orchestrator.scenario import build_fleet_cluster, _provision_fleet

    cluster = build_fleet_cluster(2, wan_gbps=1.0)
    env = cluster.env
    config = FleetConfig(viability_floor_Bps=gbps(0.5))
    orch = FleetOrchestrator(cluster, config=config)
    records = _provision_fleet(cluster, 2, 1)
    for job_id, tenant, job, qemus, _ in records:
        orch.register_job(job_id, job, qemus, tenant=tenant)
    chaos = NetworkChaos(
        cluster,
        [DegradationEvent(at_time=0.0, kind="bw", value=0.001,
                          link_pattern="wan:*")],  # no duration: permanent
    )
    chaos.start()
    # Only submit the WAN-bound job so the degraded wait path is the only
    # thing keeping the loop alive.
    job_id, _, _, _, dst_hosts = records[1]
    assert dst_hosts == ["eth02"]
    request = orch.submit(job_id, kind="spread", dst_hosts=dst_hosts)
    env.run(until=orch.all_settled())
    assert request.status == "failed"
    assert "degraded-link" in request.error
    # It re-probed every DEGRADED_RECHECK_S until the wait ran out.
    waits = list(cluster.tracer.select("fleet", "degraded_wait"))
    assert len(waits) == DEGRADED_MAX_WAIT_S / DEGRADED_RECHECK_S
    assert waits[-1].fields["waited_s"] == DEGRADED_MAX_WAIT_S
    assert request.finished_at >= DEGRADED_MAX_WAIT_S
