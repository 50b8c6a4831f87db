"""Discrete-event simulation kernel.

A from-scratch, dependency-free event-driven kernel in the style of SimPy:
generator-based processes yield :class:`~repro.sim.events.Event` objects and
are resumed when those events trigger.  The rest of :mod:`repro` (hardware,
network fabrics, the VMM, the MPI runtime, SymVirt, Ninja migration) is built
entirely on this kernel, so simulated components interact through real
message passing and real waiting rather than closed-form math.

Quick example::

    from repro.sim import Environment

    env = Environment()

    def clock(env, name, period):
        while True:
            yield env.timeout(period)
            print(name, env.now)

    env.process(clock(env, "fast", 0.5))
    env.process(clock(env, "slow", 1.0))
    env.run(until=2.0)
"""

from repro.sim.core import Environment
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Interrupt, Process
from repro.sim.resources import Container, PriorityResource, Resource
from repro.sim.fairshare import FairShare, FairShareTask, maxmin_rates
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Container",
    "Environment",
    "Event",
    "FairShare",
    "FairShareTask",
    "Interrupt",
    "PriorityResource",
    "Process",
    "Resource",
    "RngRegistry",
    "Timeout",
    "TraceRecord",
    "Tracer",
    "maxmin_rates",
]
