"""The virtual machine: vCPUs, guest RAM, guest PCI bus, run state."""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

from repro.errors import VmmError
from repro.hardware.pci import PciBus
from repro.sim.events import Event
from repro.vmm.guest_memory import GuestMemory

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment
    from repro.vmm.qemu import QemuProcess
    from repro.vmm.hypercall import HypercallChannel
    from repro.guestos.kernel import GuestKernel


class RunState(enum.Enum):
    """QEMU run states (the subset the experiments exercise)."""

    RUNNING = "running"
    PAUSED = "paused"          # stop command / stop-and-copy downtime
    INMIGRATE = "inmigrate"    # destination side waiting for state
    SHUTOFF = "shutoff"


class RunGate:
    """Cooperative execution gate for guest activity.

    Guest workload processes yield :meth:`passage` at step boundaries; when
    the VM is paused the gate blocks them, which is how stop-and-copy
    downtime and the SymVirt park freeze dirty-page generation.
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._open = True
        self._reopened: Optional[Event] = None

    @property
    def is_open(self) -> bool:
        return self._open

    def close(self) -> None:
        if self._open:
            self._open = False
            self._reopened = Event(self.env)

    def open(self) -> None:
        if not self._open:
            self._open = True
            event, self._reopened = self._reopened, None
            if event is not None:
                event.succeed()

    def passage(self) -> Event:
        """An event that fires immediately if open, else on reopen."""
        if self._open:
            event = Event(self.env)
            event.succeed()
            return event
        assert self._reopened is not None
        return self._reopened


class VirtualMachine:
    """A guest: identity, resources, and run state.

    The paper's VMs: 8 vCPUs, 20 GB RAM, qcow2 image on NFS (shared
    storage, so migration moves only memory + device state).
    """

    def __init__(
        self,
        env: "Environment",
        name: str,
        vcpus: int,
        memory_bytes: int,
        page_size: Optional[int] = None,
    ) -> None:
        if vcpus <= 0:
            raise VmmError("vcpus must be positive")
        self.env = env
        self.name = name
        self.vcpus = vcpus
        kwargs = {} if page_size is None else {"page_size": page_size}
        self.memory = GuestMemory(memory_bytes, **kwargs)
        #: The guest-visible PCI topology (virtio NIC, hot-plugged HCA).
        self.guest_pci = PciBus(name=f"{name}.guest-pci", num_slots=16)
        self.state = RunState.SHUTOFF
        self.run_gate = RunGate(env)
        self.run_gate.close()
        #: Wired by QemuProcess at creation.
        self.qemu: Optional["QemuProcess"] = None
        #: Wired by the guest OS at boot.
        self.kernel: Optional["GuestKernel"] = None
        #: Wired by QemuProcess (SymVirt transport).
        self.hypercall: Optional["HypercallChannel"] = None
        #: Auto-converge vCPU throttle (0.0 = none, 0.99 = QEMU's max).
        #: Set by the migration job; every guest compute/dirtying path
        #: scales by :attr:`cpu_share`, which closes the feedback loop
        #: that lets a throttled precopy converge.
        self.cpu_throttle = 0.0

    # -- state transitions -----------------------------------------------------

    def set_state(self, state: RunState) -> None:
        self.state = state
        if state is RunState.RUNNING:
            # A VM parked in symvirt_wait stays frozen even though QEMU
            # reports it running: the vCPUs are blocked in the hypercall.
            if self.hypercall is None or not self.hypercall.parked:
                self.run_gate.open()
        else:
            self.run_gate.close()

    @property
    def running(self) -> bool:
        return self.state is RunState.RUNNING

    @property
    def cpu_share(self) -> float:
        """Fraction of vCPU time the guest keeps under auto-converge."""
        return max(1.0 - self.cpu_throttle, 0.01)

    # -- guest execution ----------------------------------------------------------

    def host_node(self):
        """The physical node currently hosting this VM."""
        if self.qemu is None:
            raise VmmError(f"{self.name}: not hosted by any QEMU")
        return self.qemu.node

    def compute(self, cpu_seconds: float, nthreads: Optional[int] = None) -> Event:
        """Run a compute phase on the VM's vCPUs (host-CPU fair share).

        A paused VM makes no progress: the phase starts when the run gate
        reopens.  Returns an event; workload processes ``yield`` it.
        """
        threads = self.vcpus if nthreads is None else min(nthreads, self.vcpus)
        if self.run_gate.is_open:
            return self._run_parallel(cpu_seconds, threads)
        return self.env.process(
            self._compute_after_gate(cpu_seconds, threads), name=f"{self.name}.compute"
        )

    def _compute_after_gate(self, cpu_seconds: float, threads: int):
        yield self.run_gate.passage()
        yield self._run_parallel(cpu_seconds, threads)

    def _run_parallel(self, cpu_seconds: float, threads: int) -> Event:
        node = self.host_node()
        factor = 1.0
        if self.qemu is not None:
            factor = node.contention_factor(
                self.qemu.calibration.busy_poll_overcommit_exponent
            )
        # Auto-converge throttling stretches guest CPU time: a guest
        # keeping cpu_share of its vCPUs takes 1/cpu_share as long.
        return node.cpu.run_parallel(
            cpu_seconds * factor / self.cpu_share,
            threads,
            label=f"{self.name}.compute",
        )

    def __repr__(self) -> str:  # pragma: no cover
        host = self.qemu.node.name if self.qemu else "-"
        return f"<VM {self.name} {self.state.value} on {host}>"
