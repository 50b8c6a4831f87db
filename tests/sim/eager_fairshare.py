"""The eager ``FairShare``: one max-min solve and one wakeup per call.

:class:`repro.sim.fairshare.FairShare` solves its rates once per
simulated instant, when the instant ends.  :class:`EagerFairShare` is the
service as it was before that: every ``submit``, ``cancel`` and wakeup
re-solves at once and arms a fresh wakeup, cancelling the one it
supersedes.  Tests drive both side by side and compare them under ``==``.

It also records each wakeup it cancelled in the instant it armed it
(:attr:`EagerFairShare.superseded`): the batched service never queues
those, so they are the only queue entries the two runs may differ by.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SimulationError
from repro.sim.events import Event, Timeout
from repro.sim.fairshare import _EPS, _MIN_DT, FairShareTask, maxmin_rates


class EagerFairShare:
    """A :class:`~repro.sim.fairshare.FairShare` that solves on every call."""

    def __init__(self, env, capacity: float, name: str = "") -> None:
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        self.env = env
        self.capacity = float(capacity)
        self.name = name
        self._tasks: list[FairShareTask] = []
        self._wakeup: Optional[Timeout] = None
        self._armed_at = env.now
        self._last_update = env.now
        #: Wakeups cancelled in the instant that armed them.
        self.superseded: list[Timeout] = []

    @property
    def active_tasks(self) -> int:
        return len(self._tasks)

    @property
    def utilization(self) -> float:
        return sum(t.rate for t in self._tasks) / self.capacity

    def submit(
        self,
        amount: float,
        weight: float = 1.0,
        cap: float = float("inf"),
        label: str = "",
    ) -> FairShareTask:
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
        if task in self._tasks:
            self._advance_progress()
            self._tasks.remove(task)
            self._reschedule()

    def _advance_progress(self) -> None:
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
        if self._wakeup is not None:
            self._wakeup.cancel()
            if self._armed_at == self.env.now:
                self.superseded.append(self._wakeup)
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
        self._armed_at = self.env.now
        wakeup.callbacks.append(self._on_wakeup)

    def _on_wakeup(self, event: Event) -> None:
        self._wakeup = None
        self._advance_progress()
        self._reschedule()
