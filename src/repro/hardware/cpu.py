"""Host CPU scheduler: fair-share execution of compute work on cores.

Each :class:`HostCpu` wraps a :class:`~repro.sim.fairshare.FairShare` whose
capacity equals the core count.  A *thread* of work can consume at most one
core; when the number of runnable threads exceeds the core count (CPU
overcommit — e.g. Figure 8's "2 hosts (TCP)" consolidation, 16 vCPUs on
8 cores) every thread slows down proportionally, which is exactly the
contention effect the paper reports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import HardwareError
from repro.sim.events import Event
from repro.sim.fairshare import FairShare, FairShareTask

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class HostCpu:
    """Physical cores of one node, shared by vCPUs and host threads."""

    def __init__(self, env: "Environment", cores: int, name: str = "cpu") -> None:
        if cores <= 0:
            raise HardwareError("a node needs at least one core")
        self.env = env
        self.cores = cores
        self.name = name
        self._service = FairShare(env, capacity=float(cores), name=name)

    @property
    def runnable_threads(self) -> int:
        """Threads currently competing for cores."""
        return self._service.active_tasks

    @property
    def load(self) -> float:
        """Instantaneous utilization in cores (≤ ``cores``)."""
        return self._service.utilization * self.cores

    def run_thread(self, cpu_seconds: float, label: str = "") -> FairShareTask:
        """Submit one thread of ``cpu_seconds`` of work (≤ 1 core).

        Returns the task; ``task.done`` fires on completion.  With no
        contention the work takes exactly ``cpu_seconds``.
        """
        if cpu_seconds < 0:
            raise HardwareError("cpu_seconds must be non-negative")
        return self._service.submit(cpu_seconds, weight=1.0, cap=1.0, label=label)

    def run_task(
        self, cpu_seconds: float, max_cores: float = 1.0, label: str = ""
    ) -> FairShareTask:
        """Submit a task whose work spreads over up to ``max_cores`` cores.

        Used for multi-context kernel work (e.g. a TCP stream's guest vCPU
        plus its vhost thread); weight scales with the core allowance so
        fair sharing stays proportional.
        """
        if cpu_seconds < 0:
            raise HardwareError("cpu_seconds must be non-negative")
        if max_cores <= 0:
            raise HardwareError("max_cores must be positive")
        return self._service.submit(
            cpu_seconds, weight=max_cores, cap=max_cores, label=label
        )

    def run_parallel(self, cpu_seconds: float, nthreads: int, label: str = "") -> Event:
        """Run ``nthreads`` threads of ``cpu_seconds`` each; barrier event.

        Models an OpenMP-style region or one compute phase of ``nthreads``
        MPI ranks pinned to this host.  A single thread needs no barrier:
        its own ``done`` event is returned.
        """
        if nthreads <= 0:
            raise HardwareError("nthreads must be positive")
        if nthreads == 1:
            return self.run_thread(cpu_seconds, label=f"{label}[0]").done
        tasks = [
            self.run_thread(cpu_seconds, label=f"{label}[{i}]") for i in range(nthreads)
        ]
        return self.env.all_of([t.done for t in tasks])

    def cancel(self, task: FairShareTask) -> None:
        """Abort a running thread (used when a VM is destroyed mid-run)."""
        self._service.cancel(task)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<HostCpu {self.name} {self.runnable_threads}/{self.cores} busy>"
