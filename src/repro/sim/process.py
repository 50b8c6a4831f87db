"""Generator-based simulation processes.

A :class:`Process` wraps a Python generator.  Each ``yield`` hands the kernel
an :class:`~repro.sim.events.Event`; the process is resumed — with the
event's value sent into the generator, or its exception thrown — once that
event is processed.  A process is itself an event that triggers with the
generator's return value, so processes can wait on each other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.errors import InterruptError, SimulationError
from repro.sim.events import Event, PENDING, URGENT

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class Interrupt(InterruptError):
    """Thrown inside a process that another process interrupted.

    ``cause`` carries whatever the interrupter passed to
    :meth:`Process.interrupt`.
    """


class _Initialize(Event):
    """Internal event that starts a process at the current simulation time."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env.schedule(self, priority=URGENT)


class Process(Event):
    """An active simulation entity driven by a generator.

    Do not instantiate directly — use
    :meth:`Environment.process() <repro.sim.core.Environment.process>`.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(
        self, env: "Environment", generator: Generator[Event, Any, Any], name: str = ""
    ) -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process currently waits on (None once finished).
        self._target: Optional[Event] = _Initialize(env, self)

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently waiting for."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """``True`` while the generator has not finished."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process.

        The process stops waiting on its current target and must handle (or
        propagate) the interrupt.  Interrupting a finished process is an
        error; interrupting yourself is an error.
        """
        if not self.is_alive:
            raise SimulationError(f"{self.name}: cannot interrupt a finished process")
        if self.env.active_process is self:
            raise SimulationError(f"{self.name}: a process cannot interrupt itself")
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks.append(self._resume)
        self.env.schedule(interrupt_event, priority=URGENT)

    # -- kernel plumbing -----------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        if self._value is not PENDING:
            # The process already finished — e.g. it was interrupted while
            # waiting and its stale target fired later.  The dead generator
            # must not be re-driven (that would double-schedule this event);
            # absorb a stale failure so it cannot crash the run either.
            if not event._ok:
                event._defused = True
            return
        env = self.env
        env._active_process = self
        while True:
            try:
                if event._ok:
                    next_target = self._generator.send(event._value)
                else:
                    # The event carries an exception; mark it defused since
                    # this process is taking responsibility for it.
                    event._defused = True
                    exc = event._value
                    if isinstance(exc, BaseException):
                        next_target = self._generator.throw(exc)
                    else:  # pragma: no cover - defensive
                        next_target = self._generator.throw(
                            SimulationError(repr(exc))
                        )
            except StopIteration as stop:
                # Process finished normally.
                self._target = None
                self._ok = True
                self._value = stop.value
                env.schedule(self)
                break
            except BaseException as err:
                # Process died; fail the process-event so waiters see it.
                self._target = None
                self._ok = False
                self._value = err
                env.schedule(self)
                break

            if not isinstance(next_target, Event):
                event = Event(env)
                event._ok = False
                event._value = SimulationError(
                    f"process {self.name!r} yielded non-event {next_target!r}"
                )
                continue

            callbacks = next_target.callbacks
            if callbacks is not None:
                # Target still pending/queued: subscribe and go to sleep.
                callbacks.append(self._resume)
                self._target = next_target
                break

            # Target already processed: loop immediately with its outcome.
            event = next_target

        env._active_process = None

    def __repr__(self) -> str:  # pragma: no cover
        state = "alive" if self.is_alive else "finished"
        return f"<Process {self.name!r} {state}>"
