"""VM checkpoint/restore against shared storage.

The proactive fault-tolerance path of Section II-A: "using proactive and
reactive fault tolerant systems … we can restart VMs on an Ethernet
cluster from checkpointed VM images on an Infiniband cluster."

A snapshot is taken while the VM is parked (SymVirt wait) with its
VMM-bypass devices detached — the same preconditions as a Ninja
migration; the image stream is compressed exactly like the migration
stream (dup pages → 9-byte records) and written to the NFS store.
A restore boots a **new** QEMU on any node (the destination does not
need InfiniBand) and rebuilds the guest-memory composition from the
image metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import VmmError
from repro.vmm.guest_memory import PageClass
from repro.vmm.vm import RunState

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.node import PhysicalNode
    from repro.storage.nfs import NfsServer
    from repro.vmm.qemu import QemuProcess


@dataclass
class SnapshotStats:
    """Outcome of one checkpoint."""

    image_name: str
    wire_bytes: float
    dup_pages: int
    data_pages: int
    duration_s: float


def _image_meta(qemu: "QemuProcess") -> dict:
    memory = qemu.vm.memory
    counts = memory.class_counts()
    return {
        "vm_name": qemu.vm.name,
        "vcpus": qemu.vm.vcpus,
        "memory_bytes": memory.size_bytes,
        "page_size": memory.page_size,
        "zero_pages": counts[PageClass.ZERO],
        "uniform_pages": counts[PageClass.UNIFORM],
        "data_pages": counts[PageClass.DATA],
    }


def checkpoint_vm(
    qemu: "QemuProcess",
    store: "NfsServer",
    image_name: Optional[str] = None,
    extra_meta: Optional[dict] = None,
):
    """Write a memory snapshot of a parked/paused VM (generator).

    Like migration, checkpointing is blocked while a passthrough device
    is attached and requires a quiescent guest — the SymVirt sequence
    provides both.  ``extra_meta`` entries (e.g. checkpoint generation
    and owning job) are merged into the stored image metadata.  Returns
    :class:`SnapshotStats`.
    """
    if qemu.migration_blockers:
        blockers = ", ".join(sorted(qemu.migration_blockers))
        raise VmmError(
            f"{qemu.vm.name}: cannot snapshot with assigned device(s): {blockers}"
        )
    vm = qemu.vm
    parked = vm.state is RunState.PAUSED or (
        vm.hypercall is not None and vm.hypercall.parked
    )
    if not parked:
        raise VmmError(f"{vm.name}: snapshot requires a parked or paused guest")

    cal = qemu.calibration
    memory = vm.memory
    t0 = qemu.env.now
    counts = memory.class_counts()
    dup = counts[PageClass.ZERO] + counts[PageClass.UNIFORM]
    data = counts[PageClass.DATA]
    wire = dup * cal.dup_page_wire_bytes + data * (memory.page_size + cal.page_header_bytes)
    # The snapshot thread pays the same scan/serialize costs as the
    # migration thread; the NFS server bounds the aggregate stream rate.
    cpu_seconds = (
        dup * memory.page_size / cal.page_scan_Bps
        + data * memory.page_size / cal.migration_cpu_cap_Bps
    )
    yield qemu.env.timeout(cpu_seconds)
    name = image_name or f"{vm.name}.memsnap"
    meta = _image_meta(qemu)
    if extra_meta:
        meta.update(extra_meta)
    yield from store.write_image(name, int(wire), kind="memory-snapshot", meta=meta)
    stats = SnapshotStats(
        image_name=name,
        wire_bytes=wire,
        dup_pages=dup,
        data_pages=data,
        duration_s=qemu.env.now - t0,
    )
    qemu.trace("snapshot", "written", image=name, seconds=round(stats.duration_s, 2))
    return stats


def restore_vm(
    cluster,
    store: "NfsServer",
    image_name: str,
    node: "PhysicalNode",
    new_name: Optional[str] = None,
):
    """Boot a new VM from a stored snapshot on ``node`` (generator).

    Returns the new :class:`~repro.vmm.qemu.QemuProcess`.  The guest
    resumes RUNNING with its memory composition restored; re-attaching an
    HCA (when the node has one) and relaunching the MPI job are the
    caller's policy decisions.
    """
    from repro.vmm.qemu import QemuProcess  # local import: avoid cycle

    image = yield from store.read_image(image_name)
    meta = image.meta
    qemu = QemuProcess(
        cluster,
        node,
        new_name or str(meta["vm_name"]),
        vcpus=int(meta["vcpus"]),
        memory_bytes=int(meta["memory_bytes"]),
    )
    qemu.boot()
    # Rebuild the memory composition recorded at checkpoint time.  The
    # restore stream was already paid by read_image; page classes are
    # applied structurally (uniform region then data region).
    qemu.vm.memory.restore_composition(
        int(meta["uniform_pages"]), int(meta["data_pages"])
    )
    qemu.trace("snapshot", "restored", image=image_name)
    return qemu
