"""OPAL CRS: the single-process checkpoint/restart service framework.

The paper uses the **SELF** component: instead of BLCR dumping process
state, the application registers *checkpoint / continue / restart*
callbacks.  ``libsymvirt.so`` (LD_PRELOADed) registers callbacks that
issue ``symvirt_wait`` — so "checkpointing" a rank actually parks its VM
for the SymVirt controller, and VM-level migration substitutes for
process-level checkpointing (Section III-C).

Sequence per rank (driven by :meth:`OpalCrs.checkpoint`):

1. pre-checkpoint: BTL resources released (openib dies, sockets close);
2. SELF ``checkpoint`` callback → SymVirt wait → VM parked → (controller
   does detach / migrate / attach) → SymVirt signal → callback returns;
3. SELF ``continue`` callback → confirm link-up;
4. (caller then reconstructs BTLs if required).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import CheckpointError

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.runtime import MpiJob, MpiProcess

#: A callback is a generator function taking the MpiProcess.
CrsCallback = Callable[["MpiProcess"], object]


@dataclass
class CrsCallbacks:
    """SELF-component application callbacks."""

    checkpoint: Optional[CrsCallback] = None
    continue_cb: Optional[CrsCallback] = None
    #: Registered but unused by SymVirt ("SymVirt does not use a restart
    #: callback" — Section III-C); kept for API fidelity.
    restart: Optional[CrsCallback] = None


class OpalCrs:
    """The CRS framework instance of one job (SELF component active)."""

    component = "self"

    def __init__(self, job: "MpiJob") -> None:
        self.job = job
        self.env = job.env
        self.callbacks = CrsCallbacks()
        #: Completed checkpoints (diagnostics).
        self.checkpoints = 0
        #: Completed restarts (diagnostics).
        self.restarts = 0

    def register_callbacks(self, callbacks: CrsCallbacks) -> None:
        """What ``libsymvirt.so`` does at load time (via LD_PRELOAD)."""
        self.callbacks = callbacks

    def checkpoint(self, proc: "MpiProcess"):
        """Run the SELF checkpoint sequence for one rank (generator)."""
        if self.callbacks.checkpoint is None:
            raise CheckpointError(
                "no SELF checkpoint callback registered — is libsymvirt loaded?"
            )
        # Pre-checkpoint phase: release transport resources.
        proc.btl.prepare_checkpoint()
        # Checkpoint callback: SymVirt coordinator parks the VM here.
        yield from self.callbacks.checkpoint(proc)
        # Continue phase: SymVirt coordinator confirms link-up here.
        if self.callbacks.continue_cb is not None:
            yield from self.callbacks.continue_cb(proc)
        self.checkpoints += 1

    def restart(self, proc: "MpiProcess"):
        """Run the SELF restart sequence for one rank (generator).

        SymVirt's migration path never reaches here (it resumes inside
        the checkpoint callback), but a *reactive* restore does: a rank
        brought back from a stored image re-enters through restart before
        the job is relaunched.  The callback is optional — SELF restart
        with no callback is a no-op beyond bookkeeping.
        """
        if self.callbacks.restart is not None:
            yield from self.callbacks.restart(proc)
        else:
            yield self.env.timeout(0.0)
        self.restarts += 1
