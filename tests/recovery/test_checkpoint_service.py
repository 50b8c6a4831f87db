"""Fleet checkpoint service: generations, RPO accounting, retention,
eligibility guards, and epoch fencing."""

from __future__ import annotations

import pytest

from repro.orchestrator.executor import FleetConfig
from repro.orchestrator.scenario import build_estate
from repro.recovery.checkpoints import FleetCheckpointService
from repro.storage.nfs import NfsServer
from repro.units import gbps


def _mini_fleet(jobs=2, period_s=10.0, keep_generations=2):
    estate = build_estate(jobs, 1, FleetConfig(), spares=1, tenants=1)
    cluster, orch = estate.cluster, estate.orch
    nfs = NfsServer(cluster.env, bandwidth_Bps=gbps(40.0) * 0.7)
    service = FleetCheckpointService(
        cluster, orch.store, nfs, orch.journal,
        period_s=period_s, keep_generations=keep_generations,
    )
    return cluster, orch, nfs, service


def _commits(orch):
    return [r for r in orch.journal.records if r.kind == "checkpoint-commit"]


class TestCheckpointSchedule:
    def test_periodic_generations_commit(self):
        cluster, orch, nfs, service = _mini_fleet()
        service.start()
        cluster.env.run(until=60.0)
        commits = _commits(orch)
        assert len(commits) >= 2
        # Every commit has a matching intent, a consistency point that
        # precedes it, and its images actually on the store.
        intents = {
            (r.payload["job"], r.payload["generation"])
            for r in orch.journal.records
            if r.kind == "checkpoint-intent"
        }
        for commit in commits:
            assert (commit.payload["job"], commit.payload["generation"]) in intents
            assert float(commit.payload["consistency_at"]) < commit.time
            for image in commit.payload["images"]:
                assert nfs.has_image(image)
                assert f"@g{commit.payload['generation']}" in image

    def test_job_keeps_running_after_checkpoint(self):
        cluster, orch, nfs, service = _mini_fleet()
        service.start()
        cluster.env.run(until=40.0)
        assert _commits(orch)
        for record in orch.store.jobs.values():
            assert record.job.live_ranks == record.job.size

    def test_generation_counter_resumes_from_journal(self):
        cluster, orch, nfs, service = _mini_fleet()
        service.start()
        cluster.env.run(until=40.0)
        top = max(r.payload["generation"] for r in _commits(orch))
        successor = FleetCheckpointService(
            cluster, orch.store, nfs, orch.journal, period_s=10.0
        )
        assert successor.generation >= top


class TestRpoModel:
    def test_rpo_none_before_first_commit(self):
        cluster, orch, nfs, service = _mini_fleet()
        assert service.rpo_at("j0") is None

    def test_rpo_measures_from_consistency_point(self):
        cluster, orch, nfs, service = _mini_fleet()
        service.start()
        cluster.env.run(until=45.0)
        commits = [c for c in _commits(orch) if c.payload["job"] == "j0"]
        assert commits
        newest = max(commits, key=lambda c: float(c.payload["consistency_at"]))
        t = cluster.env.now
        rpo = service.rpo_at("j0", t)
        assert rpo == pytest.approx(
            t - float(newest.payload["consistency_at"])
        )
        # A failure just after the consistency point loses almost nothing.
        just_after = float(newest.payload["consistency_at"]) + 0.1
        if just_after > newest.time:
            assert service.rpo_at("j0", just_after) == pytest.approx(0.1)

    def test_rpo_ignores_generations_committed_after_failure(self):
        cluster, orch, nfs, service = _mini_fleet()
        service.start()
        cluster.env.run(until=95.0)
        commits = sorted(
            (c for c in _commits(orch) if c.payload["job"] == "j0"),
            key=lambda c: c.time,
        )
        assert len(commits) >= 2
        first, second = commits[0], commits[1]
        # Fail between the two commits: only the first generation existed.
        t = (first.time + second.time) / 2.0
        assert service.rpo_at("j0", t) == pytest.approx(
            t - float(first.payload["consistency_at"])
        )


class TestRetention:
    def test_prune_keeps_newest_generations(self):
        cluster, orch, nfs, service = _mini_fleet(
            period_s=6.0, keep_generations=1
        )
        service.start()
        cluster.env.run(until=80.0)
        for job_id in ("j0", "j1"):
            commits = [
                step.commit.payload
                for step in orch.journal.steps_of("checkpoint")
                if step.key[0] == job_id and step.commit is not None
            ]
            if len(commits) < 2:
                continue
            newest = commits[-1]
            for image in newest["images"]:
                assert nfs.has_image(image)
            for old in commits[:-1]:
                for image in old["images"]:
                    assert not nfs.has_image(image)


class TestEligibilityGuards:
    def test_busy_job_is_skipped(self):
        cluster, orch, nfs, service = _mini_fleet()
        orch.store.jobs["j0"].busy = True
        service.start()
        cluster.env.run(until=25.0)
        assert ("j0", "job-busy") in {(j, r) for _, j, r in service.skips}
        assert not any(c.payload["job"] == "j0" for c in _commits(orch))

    def test_failed_host_job_is_skipped(self):
        cluster, orch, nfs, service = _mini_fleet()
        host = orch.store.jobs["j1"].hosts()[0]
        cluster.fail_host(host)
        service.start()
        cluster.env.run(until=25.0)
        assert not any(c.payload["job"] == "j1" for c in _commits(orch))
        assert any(j == "j1" for _, j, _ in service.skips)


class TestEpochFencing:
    def test_stale_epoch_blocks_commits(self):
        cluster, orch, nfs, service = _mini_fleet()
        service.start()
        cluster.env.run(until=25.0)
        before = len(_commits(orch))
        assert before >= 1
        cluster.fencing.bump("test-supersession")
        cluster.env.run(until=60.0)
        # The fenced writer records errors instead of committing.
        assert len(_commits(orch)) == before
        assert any(reason.startswith("error:") for _, _, reason in service.skips)


class TestFailedTick:
    """A generation that fails mid-hotplug re-attaches and resumes the job
    it parked: a skipped generation, never a lost job."""

    @pytest.mark.parametrize(
        "site", ["hotplug.detach", "qmp.device_del", "hotplug.attach", "qmp.device_add"]
    )
    def test_failed_hotplug_leaves_job_running(self, site):
        estate = build_estate(1, 2, FleetConfig(), tenants=1)
        cluster, orch = estate.cluster, estate.orch
        nfs = NfsServer(cluster.env, bandwidth_Bps=gbps(40.0) * 0.7)
        service = FleetCheckpointService(cluster, orch.store, nfs, orch.journal)
        record = orch.store.jobs["j0"]
        assert len(record.qemus) == 2
        assert service.ineligible_reason(record) is None
        cluster.faults.arm(site)

        done = cluster.env.process(service.checkpoint_fleet())
        cluster.env.run(until=done)
        assert [(j, r.startswith("error:")) for _, j, r in service.skips] == [("j0", True)]

        cluster.env.run(until=cluster.env.now + 90.0)
        for qemu in record.qemus:
            assert not qemu.vm.hypercall.parked, qemu.vm.name
            assignment = qemu.assignments.get(service.detach_tag)
            assert assignment is not None and assignment.attached, qemu.vm.name
            assert qemu.vm.kernel.has_driver(assignment.function)
            assert assignment.backing.slot.bus is qemu.node.pci
        assert record.job.live_ranks == record.job.size
        assert not record.busy
        kinds = [r.kind for r in orch.journal.records if r.payload.get("job") == "j0"]
        assert "checkpoint-intent" in kinds and "checkpoint-commit" not in kinds
