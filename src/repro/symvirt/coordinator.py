"""The SymVirt coordinator: the guest half of SymVirt.

``libsymvirt.so`` is LD_PRELOADed into every MPI process and registers
SELF-component callbacks (Section III-C): "A SymVirt coordinator uses
checkpoint and continue callbacks to issue SymVirt wait calls."

Two wait rounds bracket every Ninja operation (Figures 4/5):

* **round A** — issued by the *checkpoint* callback.  While all VMs are
  parked here the controller performs guest-coordination-sensitive work
  (device detach for a fallback).
* **round B** — issued by the *continue* callback.  The controller
  performs the migration and any device attach, then signals.

After round B the continue callback *confirms link-up*: if the guest now
has an InfiniBand interface it blocks until the port is ACTIVE — this is
the ~30 s "link-up" phase of Table II / Figure 6 — before returning so
the MPI runtime can reconstruct its BTLs against a working device.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import SymVirtError
from repro.mpi.crs import CrsCallbacks

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.runtime import MpiJob, MpiProcess


class SymVirtCoordinator:
    """Per-job installer + the callback implementations."""

    def __init__(self, job: "MpiJob") -> None:
        self.job = job
        self.env = job.env
        #: Diagnostics: per-round counters.
        self.round_a_count = 0
        self.round_b_count = 0
        self.linkup_waits = 0

    @classmethod
    def install(cls, job: "MpiJob") -> "SymVirtCoordinator":
        """Register SELF callbacks (what LD_PRELOAD=libsymvirt.so does)."""
        coordinator = cls(job)
        job.crs.register_callbacks(
            CrsCallbacks(
                checkpoint=coordinator.checkpoint_callback,
                continue_cb=coordinator.continue_callback,
                restart=None,  # "SymVirt does not use a restart callback."
            )
        )
        return coordinator

    # -- SELF callbacks (generators, one rank each) ---------------------------------

    def checkpoint_callback(self, proc: "MpiProcess"):
        """Round A: park until the controller finishes the detach phase."""
        channel = proc.vm.hypercall
        if channel is None:
            raise SymVirtError(f"{proc.vm.name}: no hypercall channel")
        self.round_a_count += 1
        yield from channel.symvirt_wait()

    def continue_callback(self, proc: "MpiProcess"):
        """Round B park, then confirm link-up before MPI reconstruction."""
        channel = proc.vm.hypercall
        if channel is None:
            raise SymVirtError(f"{proc.vm.name}: no hypercall channel")
        self.round_b_count += 1
        yield from channel.symvirt_wait()
        # Confirm link-up: block until every VMM-bypass interface
        # (InfiniBand / Myrinet) carries traffic.  The wait races against
        # the driver unbinding — if the controller rolls an attach back
        # (ejects the device again) the confirm must not strand the rank.
        kernel = proc.vm.kernel
        if kernel is not None:
            for iface in kernel.bypass_interfaces():
                if not iface.is_up:
                    self.linkup_waits += 1
                    proc.trace("symvirt", "linkup_wait_begin", iface=iface.name)
                    up = iface.driver.wait_link_up()
                    gone = iface.driver.wait_gone()
                    yield self.env.any_of([up, gone])
                    if gone.triggered and not up.triggered:
                        proc.trace("symvirt", "linkup_device_gone", iface=iface.name)
                    else:
                        proc.trace("symvirt", "linkup_confirmed", iface=iface.name)
