"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot occurrence that processes can wait on.  It
moves through three states:

* *pending* — created, not yet triggered;
* *triggered* — scheduled into the environment's queue with a value or an
  exception attached;
* *processed* — popped from the queue; its callbacks have run.

Composite events (:class:`AllOf`, :class:`AnyOf`) build barrier/race
semantics on top.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment

#: Sentinel for "no value attached yet".
PENDING = object()

#: Scheduling priorities: urgent events (process resumption bookkeeping)
#: run before normal events at the same timestamp.
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot occurrence that simulation processes can wait for.

    Parameters
    ----------
    env:
        The owning :class:`~repro.sim.core.Environment`.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callbacks invoked (with this event) when the event is processed.
        #: ``None`` once processed — further ``wait`` attempts are an error.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused = False

    # -- state ---------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """``True`` once a value (or exception) has been attached."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """``True`` once callbacks have run (the event left the queue)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded, ``False`` if it failed."""
        if not self.triggered:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event was triggered with (or its exception)."""
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._value

    # -- triggering ----------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        A failed event propagates the exception into every waiting process.
        If nothing waits on it, the environment re-raises at the next step
        (unless :meth:`defused` is set), so failures cannot be silently lost.
        """
        if not isinstance(exception, BaseException):
            raise SimulationError(f"{exception!r} is not an exception")
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger with the same outcome as another (triggered) event."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = event._ok
        self._value = event._value
        self.env.schedule(self)

    # -- plumbing ------------------------------------------------------------

    def defused(self) -> "Event":
        """Mark a failed event as handled so it won't crash the run."""
        self._defused = True
        return self

    def wait(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when the event is processed."""
        if self.callbacks is None:
            raise SimulationError(f"cannot wait on processed event {self!r}")
        self.callbacks.append(callback)

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers automatically after a simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        super().__init__(env)
        self.delay = float(delay)
        self._ok = True
        self._value = value
        env.schedule(self, delay=self.delay)

    def cancel(self) -> None:
        """Withdraw a timeout that has not fired yet.

        Its callbacks never run and the kernel does not count it as an
        event; anything still waiting on it waits forever, so cancel only
        timers that nothing else waits on (a service's own wakeup).  The
        timeout then reads as processed.  Cancelling a processed timeout
        does nothing.
        """
        self.callbacks = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Timeout delay={self.delay!r}>"


class ConditionValue(dict):
    """Outcome of a composite event: maps each fired child event → value."""


class _Condition(Event):
    """Common machinery for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events: tuple[Event, ...] = tuple(events)
        self._count = 0
        for event in self.events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")
        # Check already-processed children immediately; wait on the rest.
        for event in self.events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.wait(self._check)
        if not self.events and not self.triggered:
            self.succeed(ConditionValue())

    def _satisfied(self, count: int) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._satisfied(self._count):
            result = ConditionValue()
            for child in self.events:
                if child.triggered and child._ok:
                    result[child] = child._value
            self.succeed(result)


class AllOf(_Condition):
    """Triggers when *all* child events have succeeded (a barrier).

    Fails immediately if any child fails.
    """

    __slots__ = ()

    def _satisfied(self, count: int) -> bool:
        return count == len(self.events)


class AnyOf(_Condition):
    """Triggers when *any* child event has succeeded (a race)."""

    __slots__ = ()

    def _satisfied(self, count: int) -> bool:
        return count >= 1 or not self.events
