"""Unit tests: postcopy migration — switchover, the received-page bitmap,
migrate-pause/migrate-recover, and the VM-loss failure semantics."""

import numpy as np
import pytest

from repro.errors import MigrationError, NetworkError
from repro.guestos.process import MemoryWriter
from repro.hardware.cluster import build_agc_cluster
from repro.network.degradation import DegradationEvent, NetworkChaos
from repro.units import GiB, MiB
from repro.vmm.guest_memory import PageClass
from repro.vmm.migration import POSTCOPY_CHUNK_BYTES, MigrationJob
from repro.vmm.policy import RECOVER_BACKOFF_MAX_S, MigrationPolicy
from repro.vmm.qemu import QemuProcess
from repro.vmm.vm import RunState
from tests.conftest import drive
from tests.vmm.dense_memory import class_array, mask_of, runs_of


@pytest.fixture
def qemu(cluster):
    q = QemuProcess(cluster, cluster.node("ib01"), "vm1", memory_bytes=4 * GiB)
    q.boot()
    q.vm.memory.write(1 * GiB, 1 * GiB, PageClass.DATA)
    return q


def _full_wire_bytes(qemu):
    memory = qemu.vm.memory
    cal = qemu.calibration
    dup, data = memory.dup_and_data_pages()
    return dup * cal.dup_page_wire_bytes + data * (memory.page_size + cal.page_header_bytes)


def _all_received(job):
    return list(job.received) == [(0, job.qemu.vm.memory.npages)]


def _migrate(cluster, qemu, dst_name, policy, before_s=1.0):
    env = cluster.env

    def main(env):
        yield env.timeout(before_s)
        job = qemu.migrate(cluster.node(dst_name), policy=policy)
        try:
            yield job.done
        except MigrationError:
            pass
        return job

    return drive(env, main(env))


def test_postcopy_always_switches_over_immediately(cluster, qemu):
    job = _migrate(cluster, qemu, "ib02", MigrationPolicy(postcopy="always"))
    stats = job.stats

    assert stats.status == "completed"
    assert stats.mode == "postcopy"
    assert stats.switchover_at is not None
    # Downtime is the device-state blob only — RAM follows on demand.
    assert stats.downtime_s < 0.1
    assert stats.postcopy_bytes == pytest.approx(_full_wire_bytes(qemu))
    assert _all_received(job)
    assert qemu.node.name == "ib02"
    assert qemu.vm.state is RunState.RUNNING
    assert not qemu.vm.memory.dirty_logging
    record = cluster.tracer.first("migration", "postcopy_switchover")
    assert record is not None and record.fields["missing_pages"] > 0


def test_postcopy_fallback_escalates_when_throttling_fails(cluster, qemu):
    """A capped throttle cannot slow the guest below the link rate, so
    the fallback policy escalates precopy to postcopy — with the downtime
    still bounded by the switchover blob, not the dirty set."""
    writer = MemoryWriter(
        qemu.vm, 512 * MiB, page_class=PageClass.DATA,
        chunk_bytes=2 * MiB, write_Bps=2 * GiB,
    )
    cluster.env.process(writer.run())
    policy = MigrationPolicy.adaptive(
        postcopy="fallback", throttle_max=0.5, non_convergence_rounds=1
    )
    job = _migrate(cluster, qemu, "ib02", policy)
    writer.stop()
    stats = job.stats

    assert stats.status == "completed"
    assert stats.mode == "postcopy"
    assert stats.auto_converge_kicks >= 1  # throttling was tried first
    assert stats.downtime_s < 0.5
    assert stats.iterations >= 1  # some precopy rounds ran before escalating
    assert qemu.node.name == "ib02"
    assert qemu.vm.cpu_throttle == 0.0


def test_postcopy_stream_drop_recovers_from_bitmap(cluster, qemu):
    """A mid-drain outage pauses the drain (migrate-pause); recovery
    resumes from the received-page bitmap, so every page crosses the wire
    exactly once despite the drop."""
    chaos = NetworkChaos(
        cluster,
        [DegradationEvent(at_time=0.0, kind="drop", duration_s=4.0,
                          link_pattern="ib01*")],
    )
    env = cluster.env

    def drop_later(env):
        yield env.timeout(5.0)  # mid-drain (drain spans roughly t=1.5..14)
        chaos.start()

    env.process(drop_later(env))
    policy = MigrationPolicy(postcopy="always", recover_backoff_s=1.0)
    job = _migrate(cluster, qemu, "ib02", policy)
    stats = job.stats

    assert stats.status == "completed"
    assert stats.stream_drops == 1
    assert stats.recoveries == 1
    # Bitmap resume: no page is re-sent — total wire ≈ one full image.
    assert stats.wire_bytes == pytest.approx(_full_wire_bytes(qemu))
    assert _all_received(job)
    assert qemu.node.name == "ib02"
    assert qemu.vm.state is RunState.RUNNING
    assert cluster.tracer.count("migration", "postcopy_pause") >= 1
    assert cluster.tracer.count("migration", "postcopy_recover") == 1


def test_postcopy_unrecoverable_drop_loses_vm(cluster, qemu):
    """Exhausting migrate-recover after the switchover cannot fall back:
    the only complete RAM image is split across two hosts.  The VM is
    lost — left PAUSED on the destination, never silently restarted."""
    chaos = NetworkChaos(
        cluster,
        [DegradationEvent(at_time=0.0, kind="drop", duration_s=600.0,
                          link_pattern="ib01*")],
    )
    env = cluster.env

    def drop_later(env):
        yield env.timeout(5.0)
        chaos.start()

    env.process(drop_later(env))
    policy = MigrationPolicy(
        postcopy="always", recover_max_attempts=2, recover_backoff_s=0.5
    )
    job = _migrate(cluster, qemu, "ib02", policy)
    stats = job.stats

    assert stats.status == "failed"
    assert stats.stream_drops == 1
    assert stats.recoveries == 0
    assert qemu.node.name == "ib02"  # execution had already moved
    assert qemu.vm.state is RunState.PAUSED
    assert not qemu.vm.memory.dirty_logging
    assert qemu.vm.cpu_throttle == 0.0
    record = cluster.tracer.last("migration", "failed")
    assert record is not None and record.fields.get("vm_lost") is True


def test_precopy_rounds_maintain_received_bitmap(cluster, qemu):
    """Precopy keeps the bitmap too: pages redirtied after a round are
    cleared again, so a later switchover knows exactly what is missing."""
    writer = MemoryWriter(
        qemu.vm, 512 * MiB, page_class=PageClass.DATA,
        chunk_bytes=2 * MiB, write_Bps=2 * GiB,
    )
    cluster.env.process(writer.run())
    policy = MigrationPolicy(postcopy="fallback", max_iterations=2)
    job = _migrate(cluster, qemu, "ib02", policy)
    writer.stop()

    assert job.stats.mode == "postcopy"
    # Everything ended up received, and the postcopy tail only pulled the
    # pages precopy had not already landed.
    assert _all_received(job)
    assert 0 < job.stats.postcopy_bytes < job.stats.wire_bytes


# -- differential oracle: the one-pass drain vs the per-chunk rescan ---------------


class RecordingMigrationJob(MigrationJob):
    """Records ``(dup, data, wire)`` for every postcopy chunk it prices."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.chunks = []

    def _round_cost(self, pages):
        cost = super()._round_cost(pages)
        if self._switched:
            self.chunks.append((cost[1], cost[2], cost[3]))
        return cost


class ReferenceDrainJob(RecordingMigrationJob):
    """The drain as it was before the missing-page cursor: every chunk
    rebuilds ``flatnonzero(~received)``, a full-RAM chunk mask and a
    full-RAM weighted bincount over the dense expansion of the page-class
    run map, O(pages x chunks)."""

    def _reference_chunk_cost(self, chunk_mask):
        cal = self.calibration
        memory = self.qemu.vm.memory
        counts = np.bincount(
            class_array(memory), weights=chunk_mask, minlength=3
        ).astype(np.int64)
        dup = int(counts[PageClass.ZERO]) + int(counts[PageClass.UNIFORM])
        data = int(counts[PageClass.DATA])
        wire = dup * cal.dup_page_wire_bytes + data * (
            memory.page_size + cal.page_header_bytes
        )
        cpu_seconds = (
            dup * memory.page_size / cal.page_scan_Bps
            + data * memory.page_size / self._transfer_cap_Bps
        )
        self.chunks.append((dup, data, wire))
        return dup, data, wire, cpu_seconds

    def _postcopy_drain(self):
        policy = self.policy
        memory = self.qemu.vm.memory
        chunk_pages = max(1, POSTCOPY_CHUNK_BYTES // memory.page_size)
        attempt = 0
        while True:
            missing = np.flatnonzero(~mask_of(self.received, memory.npages))
            if missing.size == 0:
                break
            chunk_idx = missing[:chunk_pages]
            chunk_mask = np.zeros(memory.npages, dtype=bool)
            chunk_mask[chunk_idx] = True
            dup, data, wire, cpu_seconds = self._reference_chunk_cost(chunk_mask)
            try:
                flow = self._transfer(wire, cpu_seconds, src_node=self._origin_node)
                yield flow.done
            except NetworkError as err:
                if attempt == 0:
                    self.stats.stream_drops += 1
                self.stats.status = "postcopy-paused"
                attempt += 1
                if attempt > policy.recover_max_attempts:
                    raise MigrationError(f"{self.qemu.vm.name}: unrecoverable") from err
                backoff = min(
                    policy.recover_backoff_s * (2.0 ** (attempt - 1)), RECOVER_BACKOFF_MAX_S
                )
                self.qemu.trace(
                    "migration", "postcopy_pause", attempt=attempt,
                    missing_pages=int(missing.size), retry_in_s=backoff,
                    error=str(err),
                )
                yield self.env.timeout(backoff)
                continue
            if attempt > 0:
                attempt = 0
                self.stats.recoveries += 1
                self.stats.status = "postcopy-active"
                self.qemu.trace(
                    "migration", "postcopy_recover",
                    missing_pages=int(missing.size),
                    recoveries=self.stats.recoveries,
                )
            self.received.update(runs_of(chunk_mask))
            self.stats.wire_bytes += wire
            self.stats.postcopy_bytes += wire
            self.stats.scanned_pages += int(chunk_idx.size)
            self.stats.dup_pages += dup
            self.stats.data_pages += data


def _drain_run(monkeypatch, job_cls, scenario):
    """One migration under ``scenario``; returns (job, migration trace)."""
    monkeypatch.setattr("repro.vmm.qemu.MigrationJob", job_cls)
    cluster = build_agc_cluster(ib_nodes=2, eth_nodes=2)
    qemu = QemuProcess(cluster, cluster.node("ib01"), "vm1", memory_bytes=4 * GiB)
    qemu.boot()
    qemu.vm.memory.write(1 * GiB, 1 * GiB, PageClass.DATA)
    env = cluster.env
    policy = MigrationPolicy(postcopy="always", recover_backoff_s=1.0)
    writer = None
    if scenario == "outage":
        chaos = NetworkChaos(
            cluster,
            [DegradationEvent(at_time=0.0, kind="drop", duration_s=4.0,
                              link_pattern="ib01*")],
        )

        def drop_later(env):
            yield env.timeout(5.0)
            chaos.start()

        env.process(drop_later(env))
    elif scenario == "after-precopy":
        # Precopy rounds leave a scattered missing set for the drain.
        writer = MemoryWriter(
            qemu.vm, 512 * MiB, page_class=PageClass.DATA,
            chunk_bytes=2 * MiB, write_Bps=2 * GiB,
        )
        env.process(writer.run())
        policy = MigrationPolicy(postcopy="fallback", max_iterations=2)
    job = _migrate(cluster, qemu, "ib02", policy)
    if writer is not None:
        writer.stop()
    trace = [
        (r.time, r.event, r.fields) for r in cluster.tracer.select("migration")
    ]
    return job, trace


@pytest.mark.parametrize("scenario", ["clean", "outage", "after-precopy"])
def test_one_pass_drain_matches_per_chunk_rescan(monkeypatch, scenario):
    new, new_trace = _drain_run(monkeypatch, RecordingMigrationJob, scenario)
    ref, ref_trace = _drain_run(monkeypatch, ReferenceDrainJob, scenario)

    assert new.stats.mode == "postcopy" and new.stats.status == "completed"
    assert len(new.chunks) > 1
    assert new.chunks == ref.chunks
    assert new.stats == ref.stats
    npages = new.qemu.vm.memory.npages
    assert np.array_equal(mask_of(new.received, npages), mask_of(ref.received, npages))
    # Same records at the same sim times, including every pause/recover
    # record's missing-page count.
    assert new_trace == ref_trace
    if scenario == "outage":
        pauses = [f["missing_pages"] for _, e, f in new_trace if e == "postcopy_pause"]
        recovers = [f["missing_pages"] for _, e, f in new_trace if e == "postcopy_recover"]
        assert pauses and len(recovers) == 1
        assert recovers[0] == pauses[-1]
