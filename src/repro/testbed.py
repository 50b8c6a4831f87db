"""Experiment testbed helpers: provision VMs and MPI jobs in one call.

The paper's experiments all start from the same steady state: one (or
more) VM per host, VMM-bypass HCAs attached and **already linked up** on
the IB cluster, an MPI job running with ``ft-enable-cr`` and
``libsymvirt`` loaded.  These helpers build that state without charging
the 30 s boot-time link training to the experiment clock.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.errors import HardwareError
from repro.hardware.cluster import Cluster
from repro.mpi.ft import FtSettings
from repro.mpi.runtime import MpiJob
from repro.network.fabric import PortState
from repro.symvirt.coordinator import SymVirtCoordinator
from repro.units import GiB
from repro.vmm.qemu import QemuProcess

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.node import PhysicalNode

#: The paper's VM shape: 8 vCPUs, 20 GB RAM on 48 GB hosts.
PAPER_VCPUS = 8
PAPER_VM_MEMORY = 20 * GiB


def attach_ib_warm(qemu: QemuProcess, tag: str = "vf0") -> None:
    """Assign + attach the host's VMM-bypass adapter, port already ACTIVE.

    Models a VM that booted with the device long ago: the experiment
    starts in "normal operation" (no pending link training), exactly how
    the paper's runs begin.  Works for InfiniBand HCAs and Myrinet NICs
    alike (the name keeps the paper's vocabulary).
    """
    node = qemu.node
    kernel = qemu.vm.kernel
    if kernel is None:
        raise HardwareError(f"{qemu.vm.name}: boot before warm attach")
    adapter = node.bypass_device()
    if adapter is None or adapter.port is None:
        raise HardwareError(f"{node.name}: no cabled VMM-bypass adapter for warm attach")
    if adapter.port.state is not PortState.ACTIVE:
        adapter.port.fabric.force_active(adapter.port)
    assignment = qemu.assign_device(adapter, tag)
    assignment.seat()
    kernel.device_added(assignment.function)


def provision_vms(
    cluster: Cluster,
    hosts: Sequence[str],
    vcpus: int = PAPER_VCPUS,
    memory_bytes: int = PAPER_VM_MEMORY,
    attach_ib: bool = True,
    name_prefix: str = "vm",
) -> List[QemuProcess]:
    """Boot one VM per listed host; warm-attach HCAs where cabled."""
    qemus: List[QemuProcess] = []
    for i, host in enumerate(hosts):
        node = cluster.node(host)
        qemu = QemuProcess(
            cluster, node, f"{name_prefix}{i + 1}", vcpus=vcpus, memory_bytes=memory_bytes
        )
        qemu.boot()
        if attach_ib and node.has_bypass_fabric:
            attach_ib_warm(qemu)
        qemus.append(qemu)
    return qemus


def create_job(
    cluster: Cluster,
    qemus: Sequence[QemuProcess],
    procs_per_vm: int = 1,
    ft: Optional[FtSettings] = None,
) -> MpiJob:
    """Create an ft-enabled MPI job with the SymVirt coordinator installed."""
    job = MpiJob(
        cluster,
        list(qemus),
        procs_per_vm=procs_per_vm,
        ft=ft if ft is not None else FtSettings.paper_settings(),
    )
    SymVirtCoordinator.install(job)
    return job


def busy_rank(proc, comm):
    """SPMD rank body that loops on compute (0.2 s, one thread) + barrier.

    Ranks spend their time inside MPI calls, so the SymVirt coordinator
    can service migration and checkpoint requests at any moment.
    """
    for _ in range(1_000_000):
        yield proc.vm.compute(0.2, nthreads=1)
        yield from comm.barrier()
