"""The guest→VMM hypercall channel SymVirt is built on.

SymVirt needs exactly two primitives (Section III-B):

* ``symvirt_wait`` — a synchronous guest→VMM call; the calling guest
  context blocks until the VMM issues a signal.  With one MPI process per
  vCPU, all vCPUs end up blocked and the VM is effectively parked.
* ``symvirt_signal`` — issued by a SymVirt agent on the VMM side; resumes
  every parked context.

The channel also exposes the VMM-side *rendezvous*: an event that fires
when **all registered guest contexts** have entered ``wait`` (what the
controller's ``wait_all`` polls for).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import SymVirtError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment
    from repro.vmm.vm import VirtualMachine


class HypercallChannel:
    """Per-VM SymVirt wait/signal channel."""

    def __init__(self, env: "Environment", vm: "VirtualMachine", hypercall_s: float) -> None:
        self.env = env
        self.vm = vm
        self.hypercall_s = hypercall_s
        #: Guest contexts (MPI processes) that will participate in waits.
        self._registered = 0
        self._waiting = 0
        self._parked: Optional[Event] = None      # fires when all waiting
        self._signal: Optional[Event] = None      # fires on symvirt_signal
        #: Counters for tests/diagnostics.
        self.waits_completed = 0
        self.signals_issued = 0

    # -- guest side -----------------------------------------------------------

    def register(self, count: int = 1) -> None:
        """Declare guest contexts that take part in wait/signal rounds."""
        if count <= 0:
            raise SymVirtError("register count must be positive")
        self._registered += count

    def symvirt_wait(self):
        """Guest context blocks until the VMM signals (generator).

        Use as ``yield from channel.symvirt_wait()``.
        """
        if self._registered == 0:
            raise SymVirtError(f"{self.vm.name}: no contexts registered")
        # VM-exit cost of the hypercall.
        yield self.env.timeout(self.hypercall_s)
        if self._signal is None:
            self._signal = Event(self.env)
        self._waiting += 1
        if self._waiting == self._registered:
            # Last vCPU in: the VM is parked; notify the VMM side.
            self.vm.run_gate.close()
            if self._parked is not None and not self._parked.triggered:
                self._parked.succeed(self.vm)
        elif self._waiting > self._registered:
            raise SymVirtError(f"{self.vm.name}: more waits than registered contexts")
        signal = self._signal
        yield signal
        self.waits_completed += 1
        # VM-entry cost on resume.
        yield self.env.timeout(self.hypercall_s)

    # -- VMM side ----------------------------------------------------------------

    @property
    def parked(self) -> bool:
        """True when every registered context is inside symvirt_wait."""
        return self._registered > 0 and self._waiting == self._registered

    def wait_parked(self) -> Event:
        """VMM-side event firing when the VM becomes fully parked."""
        event = Event(self.env)
        if self.parked:
            event.succeed(self.vm)
            return event
        if self._parked is None or self._parked.triggered:
            self._parked = Event(self.env)
        inner = self._parked

        def _relay(ev: Event) -> None:
            if not event.triggered:
                event.succeed(ev.value)

        inner.wait(_relay)
        return event

    def symvirt_signal(self) -> None:
        """Resume all parked guest contexts (agent side)."""
        if not self.parked:
            raise SymVirtError(f"{self.vm.name}: signal while not parked")
        signal, self._signal = self._signal, None
        self._waiting = 0
        self._parked = None
        self.signals_issued += 1
        # Reopen the gate only if the VM is otherwise runnable.
        from repro.vmm.vm import RunState

        if self.vm.state is RunState.RUNNING:
            self.vm.run_gate.open()
        assert signal is not None
        signal.succeed()
