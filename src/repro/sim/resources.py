"""Shared resources for simulation processes.

:class:`Container` is a continuous quantity with FIFO ``get`` requests (a
host's free RAM).  A ``get`` is an event; processes ``yield`` it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


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
