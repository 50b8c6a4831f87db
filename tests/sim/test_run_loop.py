"""``Environment.run`` and repeated ``step()`` process the same events.

``run`` drains the queue in its own loop rather than by calling
``step()`` per event.  Each scenario below is built twice, driven once
by ``run`` and once by ``step()`` alone, and the two must log the same
resumes in the same order at the same times, end at the same ``now``
and count the same events.  The scenarios cover URGENT process starts
and interrupts ahead of NORMAL events at one instant, ties broken by
scheduling order, cancelled timers, ``run(until=…)``, the re-raise of
a failed event nothing waits on, and ``FairShare`` submits and a cancel
from two processes at one instant, whose single solve runs when the
instant ends.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.core import Environment
from repro.sim.fairshare import FairShare
from repro.sim.process import Interrupt


class Boom(RuntimeError):
    pass


def _scenario(env: Environment, log: list, fail_at: float | None = None) -> None:
    def ticker(name, period, n):
        for i in range(n):
            yield env.timeout(period)
            log.append((env.now, name, i))

    def sleeper():
        try:
            yield env.timeout(10.0)
            log.append((env.now, "sleeper", "woke"))
        except Interrupt as interrupt:
            log.append((env.now, "sleeper", interrupt.cause))
        yield env.timeout(0.5)
        log.append((env.now, "sleeper", "done"))

    gate = env.event()

    def opener(victim):
        yield env.timeout(1.0)
        # The tickers' first ticks are still queued at this instant; the
        # interrupt and the new process's start (URGENT) run before them.
        victim.interrupt("poke")
        env.process(ticker("late", 0.25, 2))
        gate.succeed("open")
        log.append((env.now, "opener", "gate"))

    def waiter():
        value = yield gate
        log.append((env.now, "waiter", value))
        both = yield env.timeout(0.5, "a") & env.timeout(0.5, "b")
        log.append((env.now, "waiter", sorted(both.values())))

    share = FairShare(env, capacity=2.0)

    def cpu_user(name, amounts, cancel_last):
        yield env.timeout(1.0)
        tasks = [share.submit(amount) for amount in amounts]
        if cancel_last:
            share.cancel(tasks.pop())
        for task in tasks:
            yield task.done
            log.append((env.now, name, task.amount))

    def crasher():
        yield env.timeout(fail_at)
        log.append((env.now, "crasher", "raise"))
        raise Boom("unhandled")

    # The opener's first timer precedes the tickers' at t=1.
    env.process(opener(env.process(sleeper())))
    for name, period in (("t1", 1.0), ("t2", 1.0), ("t3", 0.75)):
        env.process(ticker(name, period, 4))
    env.process(waiter())
    # Four submits and a cancel at t=1, from two processes.
    env.process(cpu_user("cpu-a", [1.0, 3.0], False))
    env.process(cpu_user("cpu-b", [2.0, 5.0], True))
    # The last one outlives every live event: a drained run ends at it.
    for delay in (0.5, 1.0, 2.5, 30.0):
        timer = env.timeout(delay)
        timer.callbacks.append(lambda ev: log.append((env.now, "cancelled", "fired")))
        timer.cancel()
    if fail_at is not None:
        env.process(crasher())


def _by_steps(env: Environment, until: float | None = None) -> None:
    if until is None:
        while env._queue:
            env.step()
        return
    # run(until=t) schedules one NORMAL stop event at t and stops once it
    # is processed: a timer at t, scheduled now, is that event.
    marker = env.timeout(until - env.now)
    while not marker.processed:
        env.step()


def _pair(fail_at=None):
    runs = []
    for _ in range(2):
        env = Environment()
        log: list = []
        _scenario(env, log, fail_at)
        runs.append((env, log))
    return runs


def _state(env, log):
    return env.now, env.events_processed, log


def test_run_and_step_agree_on_a_drained_run():
    (a, log_a), (b, log_b) = _pair()
    a.run()
    _by_steps(b)
    assert _state(a, log_a) == _state(b, log_b)
    assert ("cancelled", "fired") not in [entry[1:] for entry in log_a]
    assert a.now == 30.0
    # URGENT before NORMAL at t=1: the interrupted sleeper resumes before
    # the ticks queued earlier at the same instant.
    at_one = [entry[1] for entry in log_a if entry[0] == 1.0]
    assert at_one.index("sleeper") < at_one.index("t1") < at_one.index("t2")
    # Three tasks share 2 cores from t=1: the 1.0 finishes at 2.5, then
    # the 2.0 at 3.5 and the 3.0 at 4.0.
    cpu = [entry for entry in log_a if entry[1].startswith("cpu")]
    assert cpu == [(2.5, "cpu-a", 1.0), (3.5, "cpu-b", 2.0), (4.0, "cpu-a", 3.0)]


@pytest.mark.parametrize(
    "stops", [(0.75,), (1.0, 2.0), (0.5, 1.75, 3.0, 20.0), (0.5, 1.0, 2.5)]
)
def test_run_until_and_step_agree(stops):
    (a, log_a), (b, log_b) = _pair()
    for at in stops:
        a.run(until=at)
        _by_steps(b, until=at)
        assert _state(a, log_a) == _state(b, log_b)
    a.run()
    _by_steps(b)
    assert _state(a, log_a) == _state(b, log_b)


def test_run_and_step_reraise_an_unhandled_failure_at_the_same_event():
    (a, log_a), (b, log_b) = _pair(fail_at=1.5)
    with pytest.raises(Boom):
        a.run()
    with pytest.raises(Boom):
        _by_steps(b)
    assert _state(a, log_a) == _state(b, log_b)
    assert a.now == 1.5 and (1.5, "crasher", "raise") in log_a
    # Both resume after the failure exactly alike.
    a.run()
    _by_steps(b)
    assert _state(a, log_a) == _state(b, log_b)


def test_step_on_a_drained_queue_still_raises():
    env = Environment()
    env.timeout(1.0)
    env.run()
    with pytest.raises(SimulationError, match="no scheduled events"):
        env.step()
