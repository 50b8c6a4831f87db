"""The simulation environment: clock, event queue, and run loop."""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Callable, Generator, Iterable, Optional, Union

from repro.errors import SimulationError, StopSimulation
from repro.sim.events import AllOf, AnyOf, Event, NORMAL, Timeout
from repro.sim.process import Process


class Environment:
    """Execution environment for a single simulation run.

    Holds the simulation clock (:attr:`now`, in seconds, starting at 0)
    and the pending event queue, creates events/processes, and drives them
    with :meth:`run` / :meth:`step`.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = count()
        self._active_process: Optional[Process] = None
        #: Callbacks to run once the current instant ends (see
        #: :meth:`at_instant_end`).
        self._instant_end: list[Callable[[], None]] = []
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

    def timeout(self, delay: float) -> Timeout:
        """Create an event that fires after ``delay`` simulated seconds."""
        return Timeout(self, delay)

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

    def sequence(self) -> int:
        """Draw the next queue sequence number.

        Entries at one time and priority run in sequence order.  A service
        that defers arming a timer draws its number where the eager timer
        would have, then queues it with ``Timeout(..., seq=...)``.
        """
        return next(self._eid)

    def at_instant_end(self, callback: Callable[[], None]) -> None:
        """Run ``callback()`` once, when the current instant ends.

        The instant ends when the next queue entry lies later than
        :attr:`now`, or the queue drains: :meth:`run` (with or without
        ``until``) and :meth:`step` call the registered callbacks then,
        before the clock moves.  A callback may queue entries, at ``now``
        or later; running it is no event and is not counted in
        :attr:`events_processed`.
        """
        self._instant_end.append(callback)

    def _end_instant_if_due(self) -> None:
        hooks = self._instant_end
        queue = self._queue
        while hooks and (not queue or queue[0][0] > self._now):
            batch = hooks[:]
            hooks.clear()
            for hook in batch:
                hook()

    def step(self) -> None:
        """Process the single next queue entry.

        The instant-end callbacks run first if the instant has ended, and
        again after the entry if it was the instant's last.

        A cancelled timer (:meth:`Timeout.cancel
        <repro.sim.events.Timeout.cancel>`) is popped and dropped: the
        clock moves to its time, but no callback runs and it is not
        counted in :attr:`events_processed`.

        Raises
        ------
        SimulationError
            If the queue is empty.
        """
        if self._instant_end:
            self._end_instant_if_due()
        try:
            self._now, _, _, event = heapq.heappop(self._queue)
        except IndexError:
            raise SimulationError("no scheduled events left") from None

        callbacks, event.callbacks = event.callbacks, None
        if callbacks is not None:
            self.events_processed += 1
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                # An unhandled failure: surface it instead of losing it.
                exc = event._value
                if isinstance(exc, BaseException):
                    raise exc
                raise SimulationError(repr(exc))  # pragma: no cover - defensive
        if self._instant_end:
            self._end_instant_if_due()

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
        an event whose callbacks do nothing.  A run that stops on
        ``until`` runs the instant-end callbacks if no entry is left at
        its stop time.
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

        # The body of step(), inlined with local bindings: one Python call
        # per event fewer, the same pops in the same order.
        queue = self._queue
        hooks = self._instant_end
        pop = heapq.heappop
        try:
            while True:
                if hooks and (not queue or queue[0][0] > self._now):
                    self._end_instant_if_due()
                if not queue:
                    break
                self._now, _, _, event = pop(queue)
                callbacks, event.callbacks = event.callbacks, None
                if callbacks is None:
                    continue  # a cancelled timer
                self.events_processed += 1
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    exc = event._value
                    if isinstance(exc, BaseException):
                        raise exc
                    raise SimulationError(repr(exc))  # pragma: no cover - defensive
        except StopSimulation as stop:
            if hooks:
                self._end_instant_if_due()
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
