"""Guest user processes: the building block for MPI ranks and benchmarks.

A :class:`GuestProcess` runs *inside* a VM: its compute consumes the VM's
vCPUs (host fair-share), its memory writes dirty guest pages, and every
step is gated on the VM's run gate so a parked/paused VM makes no
progress — which is how SymVirt freezes the application during migration.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import GuestError
from repro.units import MiB
from repro.vmm.guest_memory import PageClass

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment
    from repro.vmm.vm import VirtualMachine


class GuestProcess:
    """Base class for in-guest programs."""

    def __init__(self, vm: "VirtualMachine", name: str = "proc") -> None:
        self.vm = vm
        self.env: "Environment" = vm.env
        self.name = name

    # -- primitives (generators; use with ``yield from``) ------------------------

    def compute(self, cpu_seconds: float, nthreads: int = 1):
        """Burn CPU on the VM's vCPUs (dilates under overcommit)."""
        yield self.vm.compute(cpu_seconds, nthreads)


class MemoryWriter(GuestProcess):
    """Sequentially (re)writes a guest-memory array — the paper's memtest.

    Parameters
    ----------
    vm:
        The guest to run in.
    array_bytes:
        Size of the target array (the paper sweeps 2–16 GB).
    page_class:
        Content written: ``UNIFORM`` models memtest's repeating pattern
        (compressible on migration), ``DATA`` models incompressible fills.
    offset_bytes:
        Array placement in guest physical memory.
    chunk_bytes:
        Granularity of write bursts; also the pause/resume granularity.
    """

    def __init__(
        self,
        vm: "VirtualMachine",
        array_bytes: int,
        page_class: PageClass = PageClass.UNIFORM,
        offset_bytes: int = 1 * 1024 * MiB,
        chunk_bytes: int = 128 * MiB,
        write_Bps: Optional[float] = None,
    ) -> None:
        super().__init__(vm, name="memtest")
        if array_bytes <= 0:
            raise GuestError("array_bytes must be positive")
        if offset_bytes + array_bytes > vm.memory.size_bytes:
            raise GuestError(
                f"array of {array_bytes} B at offset {offset_bytes} exceeds "
                f"guest RAM ({vm.memory.size_bytes} B)"
            )
        self.array_bytes = int(array_bytes)
        self.page_class = page_class
        self.offset_bytes = int(offset_bytes)
        self.chunk_bytes = int(min(chunk_bytes, array_bytes))
        if write_Bps is None:
            if vm.qemu is None:
                raise GuestError("VM must be hosted to infer write bandwidth")
            write_Bps = vm.qemu.calibration.mem_write_Bps
        self.write_Bps = float(write_Bps)
        #: Completed full passes over the array.
        self.passes = 0
        self._cursor = 0
        self._stop = False

    def stop(self) -> None:
        """Ask the writer loop to exit at the next chunk boundary."""
        self._stop = True

    def step(self):
        """Write one chunk (generator); returns bytes written.

        Exposed separately so MPI workloads can interleave chunk writes
        with checkpoint-request polling.
        """
        yield self.vm.run_gate.passage()
        chunk = min(self.chunk_bytes, self.array_bytes - self._cursor)
        self.vm.memory.write(self.offset_bytes + self._cursor, chunk, self.page_class)
        # Auto-converge throttling slows the dirtying loop proportionally —
        # the feedback that lets a throttled precopy converge.
        yield self.env.timeout(chunk / (self.write_Bps * self.vm.cpu_share))
        self._cursor += chunk
        if self._cursor >= self.array_bytes:
            self._cursor = 0
            self.passes += 1
        return chunk

    def run(self, duration_s: Optional[float] = None):
        """Writer main loop (generator — hand to ``env.process``).

        Stops after ``duration_s`` of *guest-visible* activity, or when
        :meth:`stop` is called.
        """
        active = 0.0
        while not self._stop:
            yield self.vm.run_gate.passage()
            chunk = min(self.chunk_bytes, self.array_bytes - self._cursor)
            self.vm.memory.write(self.offset_bytes + self._cursor, chunk, self.page_class)
            dt = chunk / (self.write_Bps * self.vm.cpu_share)
            yield self.env.timeout(dt)
            active += dt
            self._cursor += chunk
            if self._cursor >= self.array_bytes:
                self._cursor = 0
                self.passes += 1
            if duration_s is not None and active >= duration_s:
                break
        return self.passes
