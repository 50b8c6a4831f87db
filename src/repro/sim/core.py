"""The simulation environment: clock, event queue, and run loop."""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Generator, Iterable, Optional, Union

from repro.errors import SimulationError, StopSimulation
from repro.sim.events import AllOf, AnyOf, Event, NORMAL, Timeout
from repro.sim.process import Process


class Environment:
    """Execution environment for a single simulation run.

    Holds the simulation clock (:attr:`now`, in seconds) and the pending
    event queue, creates events/processes, and drives them with
    :meth:`run` / :meth:`step`.

    Parameters
    ----------
    initial_time:
        Starting value of the clock (default ``0.0``).
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = count()
        self._active_process: Optional[Process] = None
        #: Events processed so far (monotonic; the scale campaign's
        #: events/sec throughput metric reads deltas of this).
        self.events_processed = 0

    # -- introspection --------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (None between steps)."""
        return self._active_process

    # -- factories -------------------------------------------------------------

    def event(self) -> Event:
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: str = ""
    ) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Barrier: an event that fires when all ``events`` succeeded."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Race: an event that fires when any of ``events`` succeeded."""
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------------

    def schedule(
        self, event: Event, priority: int = NORMAL, delay: float = 0.0
    ) -> None:
        """Queue ``event`` to be processed after ``delay`` seconds."""
        heapq.heappush(
            self._queue, (self._now + delay, priority, next(self._eid), event)
        )

    def step(self) -> None:
        """Process the single next queue entry.

        A cancelled timer (:meth:`Timeout.cancel
        <repro.sim.events.Timeout.cancel>`) is popped and dropped: the
        clock moves to its time, but no callback runs and it is not
        counted in :attr:`events_processed`.

        Raises
        ------
        SimulationError
            If the queue is empty.
        """
        try:
            self._now, _, _, event = heapq.heappop(self._queue)
        except IndexError:
            raise SimulationError("no scheduled events left") from None

        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:
            return  # a cancelled timer
        self.events_processed += 1
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # An unhandled failure: surface it instead of losing it.
            exc = event._value
            if isinstance(exc, BaseException):
                raise exc
            raise SimulationError(repr(exc))  # pragma: no cover - defensive

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            * ``None`` — run until the event queue drains;
            * a number — run until the clock reaches that time;
            * an :class:`Event` — run until that event is processed, and
              return its value (re-raising its exception on failure).

        A drained run leaves :attr:`now` at the last queue entry's time,
        cancelled timers included, exactly as if a cancelled timer were
        an event whose callbacks do nothing.
        """
        if until is not None and not isinstance(until, Event):
            at = float(until)
            if at < self._now:
                raise SimulationError(
                    f"until={at!r} lies in the past (now={self._now!r})"
                )
            until = Event(self)
            until._ok = True
            until._value = None
            self.schedule(until, priority=NORMAL, delay=at - self._now)

        if until is not None:
            if until.callbacks is None:
                # Already processed.
                if until._ok:
                    return until._value
                raise until._value
            until.callbacks.append(_stop_simulation)

        try:
            while self._queue:
                self.step()
        except StopSimulation as stop:
            return stop.value

        if until is not None and until.callbacks is not None:
            raise SimulationError(
                f"run() finished with {until!r} still pending — deadlock?"
            )
        return None


def _stop_simulation(event: Event) -> None:
    """Callback used by ``run(until=event)`` to unwind the run loop."""
    if event._ok:
        raise StopSimulation(event._value)
    exc = event._value
    if isinstance(exc, BaseException):
        event._defused = True
        raise exc
    raise StopSimulation(exc)  # pragma: no cover - defensive
