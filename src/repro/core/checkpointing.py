"""Proactive checkpointing: coordinated VM snapshots of a running job.

SymVirt's stated aim is "to simultaneously migrate **and
checkpoint/restart** multiple co-located VMs" (Section III-B); the
paper's non-stop-maintenance use case restarts VMs on an Ethernet
cluster from images checkpointed on the InfiniBand cluster.  This module
provides that path:

* :meth:`ProactiveCheckpoint.execute` — park the job (two SymVirt
  rounds, like Ninja), detach the VMM-bypass devices, snapshot every VM
  to the NFS store in parallel, re-attach, resume.  The job continues —
  the snapshot is insurance, so a failure part-way re-attaches the
  HCAs and resumes the job through :mod:`repro.recovery.undo` before
  the error is re-raised.
* :meth:`ProactiveCheckpoint.restore` — boot fresh VMs from the stored
  images on (possibly interconnect-different) destination nodes after a
  failure.  The MPI job is then *relaunched from the checkpoint
  boundary* (BLCR-style restart semantics: recomputation since the last
  checkpoint is lost; the VMs and their memory state are not).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.phases import PhaseTimeline
from repro.errors import ReproError, SymVirtError
from repro.hardware.node import HCA_BDF, VF_TAG
from repro.network.fabric import PortState
from repro.recovery import undo
from repro.symvirt.controller import Controller
from repro.vmm.snapshot import SnapshotStats, checkpoint_vm, restore_vm

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.cluster import Cluster
    from repro.mpi.runtime import MpiJob
    from repro.storage.nfs import NfsServer
    from repro.vmm.qemu import QemuProcess


@dataclass
class CheckpointResult:
    """Outcome of one coordinated checkpoint."""

    timeline: PhaseTimeline
    snapshots: Dict[str, SnapshotStats] = field(default_factory=dict)
    started_at: float = 0.0
    finished_at: float = 0.0
    #: Simulated time at which the job was parked — the instant whose
    #: state the images capture.  RPO accounting measures from here, not
    #: from ``finished_at``: work done *after* the park is not in the
    #: snapshot even though the write finishes later.
    consistency_at: float = 0.0

    @property
    def total_s(self) -> float:
        return self.finished_at - self.started_at

    @property
    def snapshot_s(self) -> float:
        return self.timeline.total("snapshot")

    @property
    def image_names(self) -> List[str]:
        return [s.image_name for s in self.snapshots.values()]


class ProactiveCheckpoint:
    """Coordinated checkpoint/restore for one cluster + NFS store."""

    def __init__(self, cluster: "Cluster", store: "NfsServer") -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.store = store

    def execute(
        self,
        job: "MpiJob",
        qemus: Sequence["QemuProcess"],
        image_suffix: str = "",
        extra_meta: Optional[dict] = None,
        warm_reattach: bool = False,
    ):
        """Snapshot all ``qemus`` while the job is parked (generator).

        ``image_suffix`` lets callers keep multiple generations of the
        same VM's image side by side (``vm.memsnap@g3``); ``extra_meta``
        is merged into every stored image's metadata.

        ``warm_reattach`` skips the subnet-manager sweep on re-attach:
        an in-place checkpoint releases only the guest's VF — the
        physical port never leaves the subnet, so unlike a cross-host
        migration the re-plumbed function does not pay the ~30 s hot-plug
        link training.  Periodic checkpoint schedules rely on this to
        keep the per-tick outage to the snapshot write itself.
        """
        env = self.env
        timeline = PhaseTimeline()
        t0 = env.now
        ctl = Controller(self.cluster, qemus)
        had_attached = {a.qemu.vm.name: a.has_attached(VF_TAG) for a in ctl.agents}
        #: SymVirt rounds released so far (of the two a request owes).
        signals = 0

        timeline.begin("coordination", env.now)
        job.request_checkpoint()
        try:
            yield from ctl.wait_all()
            timeline.end("coordination", env.now)
            consistency_at = env.now

            # Round A: release VMM-bypass devices (snapshots are blocked on
            # assigned devices, exactly like migration).
            timeline.begin("detach", env.now)
            yield from ctl.device_detach(VF_TAG)
            timeline.end("detach", env.now)
            yield from ctl.signal()
            signals += 1
            yield from ctl.wait_all()

            # Round B: snapshot every VM in parallel (NFS-bandwidth bound),
            # then re-attach where the hardware exists.
            timeline.begin("snapshot", env.now)
            snapshots: Dict[str, SnapshotStats] = {}

            def _snap(qemu: "QemuProcess"):
                image_name = f"{qemu.vm.name}.memsnap{image_suffix}"
                stats = yield from checkpoint_vm(
                    qemu, self.store, image_name=image_name, extra_meta=extra_meta
                )
                snapshots[qemu.vm.name] = stats

            yield ctl._parallel(_snap(q) for q in qemus)
            timeline.end("snapshot", env.now)

            timeline.begin("attach", env.now)
            reattach = [q for q in qemus if q.node.has_infiniband]
            if reattach:
                yield ctl._parallel(
                    agent.device_attach(host=str(HCA_BDF), tag=VF_TAG)
                    for agent in ctl.agents
                    if agent.qemu in reattach
                )
            timeline.end("attach", env.now)

            linkup_events = []
            for qemu in reattach:
                assignment = qemu.assignments.get(VF_TAG)
                if assignment is None or assignment.function.port is None:
                    raise SymVirtError(f"{qemu.vm.name}: re-attach left no port")
                port = assignment.function.port
                if warm_reattach and port.state is not PortState.ACTIVE:
                    port.fabric.force_active(port)
                linkup_events.append(port.wait_active())

            yield from ctl.signal()
            signals += 1
        except ReproError:
            # The job is insurance-checkpointed, never held hostage: put
            # back the HCAs and hand back the owed rounds, then let the
            # caller record the failed generation.
            yield from undo.settle(env, qemus)
            undo.finish_partial_ejects(self.cluster, qemus, VF_TAG)
            yield from undo.reattach_origin(ctl, VF_TAG, had_attached)
            yield from undo.resume_guests(ctl, 2 - signals)
            raise
        timeline.begin("linkup", env.now)
        if linkup_events:
            yield env.all_of(linkup_events)
        timeline.end("linkup", env.now)
        yield from ctl.quit()

        result = CheckpointResult(
            timeline=timeline,
            snapshots=snapshots,
            started_at=t0,
            finished_at=env.now,
            consistency_at=consistency_at,
        )
        self.cluster.trace(
            "checkpoint", "completed",
            vms=len(snapshots), seconds=round(result.total_s, 2),
        )
        return result

    def restore(
        self,
        image_names: Sequence[str],
        dst_hosts: Sequence[str],
        name_suffix: str = "",
    ):
        """Boot new VMs from stored images on ``dst_hosts`` (generator).

        Images map to hosts positionally (wrap-around allowed, as with
        migration plans).  Returns the new QemuProcess list.
        """
        if not image_names:
            raise SymVirtError("nothing to restore")
        if not dst_hosts:
            raise SymVirtError("no destination hosts")
        restored: List["QemuProcess"] = []

        def _one(image_name: str, host: str):
            node = self.cluster.node(host)
            meta_name = self.store.image(image_name).meta.get("vm_name", image_name)
            qemu = yield from restore_vm(
                self.cluster, self.store, image_name, node,
                new_name=f"{meta_name}{name_suffix}",
            )
            restored.append(qemu)

        processes = [
            self.env.process(_one(image, dst_hosts[i % len(dst_hosts)]))
            for i, image in enumerate(image_names)
        ]
        yield self.env.all_of(processes)
        restored.sort(key=lambda q: q.vm.name)
        self.cluster.trace("checkpoint", "restored", vms=len(restored))
        return restored
