"""Open arrival processes: the request traffic of the scale campaign.

The fleet experiments so far were *closed*: a fixed batch of migration
requests is submitted at t=0 and the run ends when the batch drains.
Capacity questions — how many concurrent migrations a fabric sustains,
whether the solver keeps up over hours of churn — need an *open* system,
where requests keep arriving while earlier ones are still in flight.

An :class:`ArrivalProcess` is an iterator of :class:`Arrival` events
(time + request kind), consumed by the continuous-traffic orchestrator
(:mod:`repro.orchestrator.continuous`).  :class:`PoissonProcess` draws
exponential inter-arrival gaps from a named RNG stream (deterministic
per seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional

import numpy as np


@dataclass(frozen=True)
class Arrival:
    """One request arrival: when, and what kind of work."""

    time: float
    kind: str


class ArrivalProcess:
    """Base: an ordered, finite stream of :class:`Arrival` events."""

    def events(self) -> Iterator[Arrival]:
        raise NotImplementedError


class PoissonProcess(ArrivalProcess):
    """Homogeneous Poisson arrivals with a categorical kind mix.

    Parameters
    ----------
    rng:
        A ``numpy`` generator — pass a named stream from
        :class:`~repro.sim.rng.RngRegistry` so arrival noise never
        perturbs placement or workload randomness.
    rate_per_s:
        Mean arrivals per simulated second (the open-system load knob).
    horizon_s:
        Arrivals strictly before this time; the stream then ends.
    mix:
        ``kind → weight`` (normalized internally); default all-``churn``.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        rate_per_s: float,
        horizon_s: float,
        mix: Optional[Dict[str, float]] = None,
    ) -> None:
        if rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        if horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        weights = dict(mix) if mix else {"churn": 1.0}
        total = float(sum(weights.values()))
        if total <= 0 or any(w < 0 for w in weights.values()):
            raise ValueError("mix weights must be non-negative with a positive sum")
        self.rng = rng
        self.rate_per_s = float(rate_per_s)
        self.horizon_s = float(horizon_s)
        self._kinds = list(weights)
        self._cdf = np.cumsum([w / total for w in weights.values()])

    def events(self) -> Iterator[Arrival]:
        mean_gap = 1.0 / self.rate_per_s
        t = 0.0
        while True:
            t += float(self.rng.exponential(mean_gap))
            if t >= self.horizon_s:
                return
            idx = int(np.searchsorted(self._cdf, self.rng.random(), side="right"))
            yield Arrival(t, self._kinds[min(idx, len(self._kinds) - 1)])


__all__ = [
    "Arrival",
    "ArrivalProcess",
    "PoissonProcess",
]
