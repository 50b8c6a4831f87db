"""Max-min fair sharing of a single divisible capacity.

This is the work-horse behind two performance-critical models:

* the **host CPU scheduler** (:mod:`repro.hardware.cpu`): vCPU threads share
  physical cores, reproducing the CPU-overcommit contention the paper
  observes in the "2 hosts (TCP)" phase of Figure 8; and
* **single-link rate limiting** (per-NIC caps, the single-threaded QEMU
  migration CPU cap of ≈ 1.3 Gbps).

Multi-link network flows use the global max-min algorithm in
:mod:`repro.network.flows`, which reuses :func:`maxmin_rates`.

A :class:`FairShare` service accepts *tasks*, each with a fixed amount of
work (bytes, cpu-seconds, …), a weight, and an optional per-task rate cap.
At any instant the capacity is divided max-min fairly among active tasks;
the service wakes itself whenever the rate allocation changes and completes
tasks at exactly the right simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.errors import SimulationError
from repro.sim.events import Event, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment

_EPS = 1e-9
#: Minimum wakeup quantum: guards against sub-float-resolution timeouts
#: (``now + dt == now``) that would spin the event loop forever.
_MIN_DT = 1e-9


def maxmin_rates(
    capacity: float,
    weights: list[float],
    caps: Optional[list[float]] = None,
) -> list[float]:
    """Water-filling max-min allocation of ``capacity`` among tasks.

    Each task ``i`` gets at most ``caps[i]`` and otherwise a share
    proportional to ``weights[i]``.  Unused capacity from capped tasks is
    redistributed among the rest (progressive filling).

    Returns a list of rates summing to at most ``capacity``.
    """
    n = len(weights)
    if caps is None:
        caps = [float("inf")] * n
    if len(caps) != n:
        raise SimulationError("weights and caps must have equal length")
    if any(w <= 0 for w in weights):
        raise SimulationError("weights must be positive")

    rates = [0.0] * n
    active = list(range(n))
    remaining = float(capacity)
    while active:
        total_weight = sum(weights[i] for i in active)
        share = remaining / total_weight
        capped = [i for i in active if caps[i] < share * weights[i] - _EPS]
        if not capped:
            for i in active:
                rates[i] = share * weights[i]
            break
        for i in capped:
            rates[i] = caps[i]
            remaining -= caps[i]
            active.remove(i)
        remaining = max(remaining, 0.0)
    return rates


@dataclass
class FairShareTask:
    """One unit of work progressing through a :class:`FairShare` service."""

    amount: float
    weight: float = 1.0
    cap: float = float("inf")
    label: str = ""
    #: Event fired (with the task) on completion.
    done: Event = field(default=None, repr=False)  # type: ignore[assignment]
    remaining: float = field(default=0.0, repr=False)
    rate: float = field(default=0.0, repr=False)
    started_at: float = field(default=0.0, repr=False)
    finished_at: Optional[float] = field(default=None, repr=False)

    @property
    def finished(self) -> bool:
        return self.finished_at is not None


class FairShare:
    """A divisible capacity shared max-min fairly among concurrent tasks.

    Parameters
    ----------
    env:
        Simulation environment.
    capacity:
        Total service rate (units of work per second).
    name:
        Label for debugging/tracing.
    """

    def __init__(self, env: "Environment", capacity: float, name: str = "") -> None:
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        self.env = env
        self.capacity = float(capacity)
        self.name = name
        self._tasks: list[FairShareTask] = []
        self._wakeup: Optional[Timeout] = None
        self._last_update = env.now

    # -- public API ------------------------------------------------------------

    @property
    def active_tasks(self) -> int:
        """Number of tasks currently in service."""
        return len(self._tasks)

    @property
    def utilization(self) -> float:
        """Fraction of capacity currently allocated."""
        return sum(t.rate for t in self._tasks) / self.capacity

    def submit(
        self,
        amount: float,
        weight: float = 1.0,
        cap: float = float("inf"),
        label: str = "",
    ) -> FairShareTask:
        """Submit ``amount`` units of work; returns the task.

        ``task.done`` is an event firing when the work completes; processes
        typically ``yield task.done``.
        """
        if amount < 0:
            raise SimulationError("amount must be non-negative")
        task = FairShareTask(
            amount=float(amount), weight=float(weight), cap=float(cap), label=label
        )
        task.done = Event(self.env)
        task.remaining = float(amount)
        task.started_at = self.env.now
        self._advance_progress()
        if amount <= _EPS:
            task.finished_at = self.env.now
            task.done.succeed(task)
        else:
            self._tasks.append(task)
        self._reschedule()
        return task

    def cancel(self, task: FairShareTask) -> None:
        """Abort a task; its ``done`` event never fires."""
        if task in self._tasks:
            self._advance_progress()
            self._tasks.remove(task)
            self._reschedule()

    def set_capacity(self, capacity: float) -> None:
        """Change the total service rate (e.g. link renegotiation)."""
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        self._advance_progress()
        self.capacity = float(capacity)
        self._reschedule()

    # -- internals ---------------------------------------------------------------

    def _advance_progress(self) -> None:
        """Account work done since the last rate change; complete tasks."""
        now = self.env.now
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed <= 0 or not self._tasks:
            return
        finished: list[FairShareTask] = []
        for task in self._tasks:
            task.remaining -= task.rate * elapsed
            if task.remaining <= _EPS * max(1.0, task.amount) or (
                task.rate > 0 and task.remaining <= task.rate * _MIN_DT
            ):
                task.remaining = 0.0
                finished.append(task)
        for task in finished:
            self._tasks.remove(task)
            task.finished_at = now
            task.done.succeed(task)

    def _reschedule(self) -> None:
        """Recompute rates and schedule a wakeup at the next completion.

        The wakeup this one supersedes is cancelled, so the kernel never
        processes it.  Progress is still credited only at rate changes
        and completions: an extra wakeup would split ``rate * elapsed``
        and move the floats.
        """
        if self._wakeup is not None:
            self._wakeup.cancel()
            self._wakeup = None
        if not self._tasks:
            return

        rates = maxmin_rates(
            self.capacity,
            [t.weight for t in self._tasks],
            [t.cap for t in self._tasks],
        )
        for task, rate in zip(self._tasks, rates):
            task.rate = rate

        next_dt = min(
            (t.remaining / t.rate for t in self._tasks if t.rate > _EPS),
            default=None,
        )
        if next_dt is None:
            raise SimulationError(
                f"FairShare {self.name!r}: tasks present but no progress possible"
            )
        wakeup = self.env.timeout(max(next_dt, _MIN_DT))
        self._wakeup = wakeup
        wakeup.callbacks.append(self._on_wakeup)

    def _on_wakeup(self, event: Event) -> None:
        self._wakeup = None
        self._advance_progress()
        self._reschedule()
