"""Fleet-wide proactive checkpointing + checkpoint restore.

The paper's Section II-A survivability story — "using proactive and
reactive fault tolerant systems … we can restart VMs on an Ethernet
cluster from checkpointed VM images on an Infiniband cluster" — needs
three things the per-job :class:`~repro.core.checkpointing.ProactiveCheckpoint`
alone does not provide:

* a **schedule**: every registered fleet job is parked through the real
  SymVirt/CRCP path and snapshotted to NFS every ``period_s`` seconds,
  as *generations* (``vm.memsnap@g3``) so an in-progress write never
  clobbers the last good images;
* **durability accounting**: each generation is bracketed by
  ``checkpoint-intent`` / ``checkpoint-commit`` journal records, and
  only committed generations are restorable — the journal fold, not the
  NFS listing, decides what a restore may use.  This yields the RPO
  model: at failure time ``T`` the recovery point is the newest
  committed generation's *consistency point* (the SymVirt park instant),
  so ``RPO = T − consistency_at ≤ period + checkpoint duration``;
* **restore**: boot replacement VMs from a committed generation on spare
  hosts, rebuild an :class:`~repro.mpi.runtime.MpiJob` over them (CRS
  SELF *restart* phase), and hand them back to the fleet store.

The service is a controller like any other: each generation is one
journalled ``checkpoint`` step
(:meth:`~repro.recovery.journal.MigrationJournal.step`), it captures the
fencing epoch at construction and checks it before every commit, and an
injected :class:`~repro.errors.ControllerCrashError` at a
``checkpoint.*`` site kills it mid-generation — leaving an intent
without a commit, which a successor service (and any restore) must treat
as never having happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.checkpointing import ProactiveCheckpoint
from repro.errors import ControllerCrashError, IncidentError, ReproError
from repro.testbed import create_job
from repro.vmm.snapshot import restore_vm
from repro.vmm.vm import RunState

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.cluster import Cluster
    from repro.mpi.runtime import MpiJob
    from repro.orchestrator.state import FleetJob, FleetStateStore
    from repro.recovery.journal import MigrationJournal
    from repro.storage.nfs import NfsServer
    from repro.vmm.qemu import QemuProcess

#: Committed generations kept per job; :meth:`FleetCheckpointService.prune`
#: deletes the images of older ones.
KEEP_GENERATIONS = 2

#: Fault-injection sites bracketing the durability boundary of one
#: generation (crash-matrix hooks, like the Ninja phase sites).
CHECKPOINT_INTENT_SITE = "checkpoint.intent"
CHECKPOINT_COMMIT_SITE = "checkpoint.commit"


@dataclass
class RestoreOutcome:
    """What :meth:`FleetCheckpointService.restore_job` brought back."""

    job: "MpiJob"
    qemus: List["QemuProcess"] = field(default_factory=list)
    #: VM names adopted from a previous (crashed) restore attempt
    #: instead of booted fresh — the idempotency evidence.
    adopted: List[str] = field(default_factory=list)


class FleetCheckpointService:
    """Periodic cluster-wide checkpoint generations + restore.

    One instance per controller generation; a successor built over the
    same journal resumes generation numbering where the dead one
    stopped and never trusts an uncommitted generation.
    """

    def __init__(
        self,
        cluster: "Cluster",
        store: "FleetStateStore",
        nfs: "NfsServer",
        journal: "MigrationJournal",
        period_s: float = 12.0,
    ) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.store = store
        self.nfs = nfs
        self.journal = journal
        self.period_s = period_s
        self.checkpointer = ProactiveCheckpoint(cluster, nfs)
        #: Fencing epoch current at construction; checked before commits.
        self.epoch = cluster.fencing.current
        #: Last generation number used, resumed from the journal so a
        #: successor never reuses a dead controller's generation id.
        self.generation = max(
            (int(s.key[1]) for s in journal.steps_of("checkpoint")), default=0  # type: ignore[index]
        )
        #: (time, job, reason) ticks skipped by the eligibility guards.
        self.skips: List[Tuple[float, str, str]] = []
        self.crashed = False
        self.crash_error = ""
        self._proc = None

    # -- schedule ----------------------------------------------------------------

    def start(self):
        """Spawn the periodic checkpoint loop; returns the process."""
        if self._proc is None or not self._proc.is_alive:
            self._proc = self.env.process(self._run(), name="checkpoint.schedule")
        return self._proc

    def stop(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("checkpoint service stopped")
        self._proc = None

    def _run(self):
        from repro.sim.process import Interrupt

        try:
            while True:
                yield self.env.timeout(self.period_s)
                yield from self.checkpoint_fleet()
        except Interrupt:
            return
        except ControllerCrashError as err:
            # The checkpointing controller died mid-generation: the open
            # intent has no commit, so nothing will ever restore from it.
            self.crashed = True
            self.crash_error = str(err)
            self.cluster.trace("checkpoint", "controller_crash", error=str(err))

    def checkpoint_fleet(self):
        """One tick: checkpoint every eligible registered job (generator)."""
        for job_id in sorted(self.store.jobs):
            record = self.store.jobs[job_id]
            reason = self.ineligible_reason(record)
            if reason is not None:
                self.skips.append((self.env.now, job_id, reason))
                self.cluster.trace(
                    "checkpoint", "skipped", job=job_id, reason=reason,
                )
                continue
            try:
                yield from self.checkpoint_job(record)
            except ReproError as err:
                # A failed generation is a skipped generation: the
                # checkpointer has already re-attached and resumed the
                # job through the undo path, the next tick tries again,
                # and the journal shows intent-without-commit.
                self.skips.append((self.env.now, job_id, f"error:{err}"))
                self.cluster.trace(
                    "checkpoint", "failed", job=job_id, error=str(err),
                )

    # -- eligibility ---------------------------------------------------------------

    def ineligible_reason(self, record: "FleetJob") -> Optional[str]:
        """Why ``record`` must not be checkpointed right now (None = go).

        A checkpoint parks *every* VM of the job through SymVirt, so it
        is exclusive with migration (the fleet ``busy`` flag and the
        per-VM in-flight stream), needs all ranks alive for the CRCP
        quiesce, and is meaningless once a VM is parked elsewhere, shut
        off, or stranded on a dead host.
        """
        if record.busy:
            return "job-busy"
        job = record.job
        if job._rank_processes and job.live_ranks < job.size:
            return "ranks-not-running"
        if not job._rank_processes:
            return "not-launched"
        for qemu in record.qemus:
            if qemu.current_migration is not None and qemu.current_migration.stats.in_flight:
                return "vm-mid-migration"
            if qemu.node.failed:
                return "host-failed"
            if qemu.vm.state is not RunState.RUNNING:
                return "vm-not-running"
            if qemu.vm.hypercall is not None and qemu.vm.hypercall.parked:
                return "vm-parked"
        return None

    # -- one generation ------------------------------------------------------------

    def checkpoint_job(self, record: "FleetJob"):
        """Write one committed generation for ``record`` (generator);
        returns the ``checkpoint-commit`` record."""
        self.generation += 1
        gen = self.generation
        suffix = f"@g{gen}"
        planned = sorted(f"{q.vm.name}.memsnap{suffix}" for q in record.qemus)
        record.busy = True  # exclusive with migration, like a sequence
        try:
            commit = yield from self.journal.step(
                "checkpoint", self._write(record, gen, suffix), offer=self._offer,
                sites=(CHECKPOINT_INTENT_SITE, CHECKPOINT_COMMIT_SITE),
                job=record.job_id, generation=gen, images=planned, epoch=self.epoch,
            )
        finally:
            record.busy = False
        self.prune(record.job_id)
        return commit

    def _write(self, record: "FleetJob", gen: int, suffix: str):
        result = yield from self.checkpointer.execute(
            record.job,
            record.qemus,
            image_suffix=suffix,
            extra_meta={"generation": gen, "job": record.job_id},
            # In-place tick: the physical port never left the subnet,
            # so skip the cross-host hot-plug SM sweep on re-attach.
            warm_reattach=True,
        )
        return {
            "images": sorted(result.image_names),
            "cr_round": record.job.cr_round,
            "consistency_at": result.consistency_at,
            "duration_s": result.total_s,
        }

    def _offer(self, site: str):
        yield from self.cluster.faults.perturb(site)
        if site == CHECKPOINT_COMMIT_SITE:
            # A fenced-out (superseded) service must not commit: its
            # images exist but the journal never blesses them.
            self.cluster.fencing.check(self.epoch, actor="checkpoint-service")

    # -- RPO model -----------------------------------------------------------------

    def rpo_at(self, job_id: str, t: Optional[float] = None) -> Optional[float]:
        """Recomputation loss if ``job_id`` failed at time ``t`` (now).

        ``None`` when no committed generation exists yet (the job would
        be lost outright).  Otherwise the distance back to the newest
        committed generation's consistency point — bounded by
        ``period_s`` plus one checkpoint duration when the schedule is
        keeping up.
        """
        t = self.env.now if t is None else t
        newest = self.journal.last_committed_checkpoint(job_id, before=t)
        if newest is None:
            return None
        return max(t - float(newest.get("consistency_at", 0.0)), 0.0)

    # -- retention -----------------------------------------------------------------

    def prune(self, job_id: str) -> List[str]:
        """Delete images beyond the newest :data:`KEEP_GENERATIONS` commits.

        Only *committed* generations count toward retention; an
        uncommitted generation's images are garbage from a dead writer
        and are removed whenever an older committed one is.
        """
        commits = [
            step.commit.payload
            for step in self.journal.steps_of("checkpoint")
            if step.key[0] == job_id and step.commit is not None  # type: ignore[index]
        ]
        if len(commits) <= KEEP_GENERATIONS:
            return []
        keep = {
            name
            for payload in commits[-KEEP_GENERATIONS:]
            for name in payload.get("images", ())
        }
        doomed: List[str] = []
        for payload in commits[:-KEEP_GENERATIONS]:
            for name in payload.get("images", ()):
                if name not in keep and self.nfs.has_image(name):
                    self.nfs.delete(name)
                    doomed.append(name)
        if doomed:
            self.cluster.trace(
                "checkpoint", "pruned", job=job_id, images=sorted(doomed),
            )
        return doomed

    # -- restore -------------------------------------------------------------------

    def restore_job(
        self,
        record: "FleetJob",
        generation: Dict[str, object],
        hosts: Sequence[str],
        name_tag: str = "",
    ):
        """Replace ``record``'s job with one restored from ``generation``.

        Generator; returns a :class:`RestoreOutcome`.  ``generation`` is
        a ``checkpoint-commit`` payload (the journal fold output) —
        passing anything else would violate the only-committed rule.
        Idempotent per VM: a replacement VM left RUNNING by a crashed
        earlier attempt (matched by its deterministic ``name_tag`` name)
        is *adopted*, not booted again, so resume never double-restores.
        """
        images = sorted(str(n) for n in generation.get("images", ()))
        if not images:
            raise IncidentError(
                f"{record.job_id}: committed generation lists no images"
            )
        if not hosts:
            raise IncidentError(f"{record.job_id}: no restore destinations")
        # The old mpirun is dead or dying: stop survivor ranks so they
        # don't sit in recvs waiting for peers that now live in images.
        record.job.terminate("superseded by checkpoint restore")
        for qemu in record.qemus:
            if qemu.vm.state is not RunState.SHUTOFF and not qemu.node.failed:
                qemu.shutdown()
        restored: List["QemuProcess"] = []
        adopted: List[str] = []
        for i, image_name in enumerate(images):
            meta = self.nfs.image(image_name).meta
            new_name = f"{meta.get('vm_name', image_name)}{name_tag}"
            existing = self._find_running_vm(new_name)
            if existing is not None:
                adopted.append(new_name)
                restored.append(existing)
                continue
            node = self.cluster.node(hosts[i % len(hosts)])
            qemu = yield from restore_vm(
                self.cluster, self.nfs, image_name, node, new_name=new_name
            )
            restored.append(qemu)
        restored.sort(key=lambda q: q.vm.name)
        job = create_job(
            self.cluster,
            restored,
            procs_per_vm=record.job.procs_per_vm,
            ft=record.job.ft,
        )
        yield from job.init()
        # CRS SELF restart phase: each restored rank re-enters through
        # the restart callback before the job relaunches from the
        # checkpoint epoch (recomputation since the park is lost).
        for proc in job.procs:
            yield from job.crs.restart(proc)
        self.cluster.trace(
            "checkpoint", "job_restored",
            job=record.job_id,
            generation=generation.get("generation"),
            vms=[q.vm.name for q in restored],
            adopted=sorted(adopted),
        )
        return RestoreOutcome(job=job, qemus=restored, adopted=adopted)

    # -- internals -----------------------------------------------------------------

    def _find_running_vm(self, name: str) -> Optional["QemuProcess"]:
        for node in self.cluster.nodes.values():
            for qemu in node.vms:
                if qemu.vm.name == name and qemu.vm.state is RunState.RUNNING:
                    return qemu
        return None


__all__ = [
    "CHECKPOINT_COMMIT_SITE",
    "CHECKPOINT_INTENT_SITE",
    "FleetCheckpointService",
    "RestoreOutcome",
]
