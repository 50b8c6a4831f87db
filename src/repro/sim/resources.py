"""Shared resources for simulation processes.

* :class:`Resource` — a counted semaphore with FIFO waiters.
* :class:`PriorityResource` — same, with priority-ordered waiters.
* :class:`Container` — continuous quantity with FIFO ``get`` requests
  (a host's free RAM).

All acquire/release operations are events; processes ``yield`` them.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import TYPE_CHECKING, Any

from repro.errors import SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class Request(Event):
    """Pending acquisition of one :class:`Resource` slot.

    Usable as a context manager so the slot is always released::

        with resource.request() as req:
            yield req
            ...
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request."""
        if not self.triggered:
            self.resource._withdraw(self)


class Resource:
    """A resource with ``capacity`` identical slots and FIFO waiters."""

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity!r}")
        self.env = env
        self.capacity = capacity
        self._users: list[Request] = []
        self._waiters: list[Request] = []

    def request(self) -> Request:
        """Ask for one slot; the returned event fires when granted."""
        return Request(self)

    def release(self, request: Request) -> None:
        """Return a previously granted slot and wake the next waiter."""
        if request in self._users:
            self._users.remove(request)
            self._grant_next()
        else:
            # Releasing an ungranted request == cancelling it.
            request.cancel()

    # -- internals -------------------------------------------------------------

    def _do_request(self, request: Request) -> None:
        if len(self._users) < self.capacity:
            self._users.append(request)
            request.succeed(request)
        else:
            self._waiters.append(request)

    def _withdraw(self, request: Request) -> None:
        if request in self._waiters:
            self._waiters.remove(request)

    def _grant_next(self) -> None:
        while self._waiters and len(self._users) < self.capacity:
            nxt = self._waiters.pop(0)
            self._users.append(nxt)
            nxt.succeed(nxt)


class PriorityRequest(Request):
    """A :class:`Request` carrying a priority (lower value = served first)."""

    __slots__ = ("priority", "_order")

    def __init__(self, resource: "PriorityResource", priority: int) -> None:
        self.priority = priority
        self._order = next(resource._counter)
        super().__init__(resource)

    def _sort_key(self) -> tuple[int, int]:
        return (self.priority, self._order)


class PriorityResource(Resource):
    """A :class:`Resource` whose waiters are served in priority order."""

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        self._counter = count()
        super().__init__(env, capacity)

    def request(self, priority: int = 0) -> PriorityRequest:  # type: ignore[override]
        return PriorityRequest(self, priority)

    def _do_request(self, request: Request) -> None:
        if len(self._users) < self.capacity:
            self._users.append(request)
            request.succeed(request)
        else:
            self._waiters.append(request)
            self._waiters.sort(key=lambda r: r._sort_key())  # type: ignore[attr-defined]


class Container:
    """A continuous quantity with blocking ``get`` and non-blocking ``put``.

    Used for modelling pools (free memory, link credits).  ``get`` requests
    are served FIFO as soon as enough quantity is available.
    """

    def __init__(
        self, env: "Environment", capacity: float = float("inf"), init: float = 0.0
    ) -> None:
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        if not (0 <= init <= capacity):
            raise SimulationError("init must lie within [0, capacity]")
        self.env = env
        self.capacity = float(capacity)
        self._level = float(init)
        self._getters: list[tuple[float, Event]] = []

    @property
    def level(self) -> float:
        """Currently stored quantity."""
        return self._level

    def put(self, amount: float) -> None:
        """Add ``amount`` immediately (raises if it would exceed capacity)."""
        if amount < 0:
            raise SimulationError("amount must be non-negative")
        if self._level + amount > self.capacity + 1e-9:
            raise SimulationError("container overflow")
        self._level += amount
        self._serve()

    def get(self, amount: float) -> Event:
        """Return an event that fires once ``amount`` has been withdrawn."""
        if amount < 0:
            raise SimulationError("amount must be non-negative")
        if amount > self.capacity:
            raise SimulationError("requested more than capacity — would never fire")
        event = Event(self.env)
        self._getters.append((float(amount), event))
        self._serve()
        return event

    def _serve(self) -> None:
        while self._getters and self._getters[0][0] <= self._level + 1e-12:
            amount, event = self._getters.pop(0)
            self._level -= amount
            event.succeed(amount)
