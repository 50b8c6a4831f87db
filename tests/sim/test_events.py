"""Unit tests: event primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim.core import Environment
from repro.sim.events import AllOf, AnyOf


def test_event_lifecycle(env):
    event = env.event()
    assert not event.triggered and not event.processed
    event.succeed(42)
    assert event.triggered and not event.processed
    env.run()
    assert event.processed
    assert event.ok
    assert event.value == 42


def test_event_double_trigger_rejected(env):
    event = env.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()
    with pytest.raises(SimulationError):
        event.fail(RuntimeError("x"))
    env.run()


def test_value_before_trigger_raises(env):
    event = env.event()
    with pytest.raises(SimulationError):
        _ = event.value
    with pytest.raises(SimulationError):
        _ = event.ok


def test_fail_requires_exception(env):
    event = env.event()
    with pytest.raises(SimulationError):
        event.fail("not an exception")  # type: ignore[arg-type]


def test_unhandled_failure_surfaces(env):
    event = env.event()
    event.fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_timeout_fires_at_delay(env):
    t = env.timeout(2.5, value="done")
    env.run()
    assert env.now == pytest.approx(2.5)
    assert t.value == "done"


def test_negative_timeout_rejected(env):
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_timeout_ordering_stable(env):
    order = []
    for i in range(5):
        t = env.timeout(1.0, value=i)
        t.callbacks.append(lambda ev: order.append(ev.value))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_allof_waits_for_all(env):
    a, b = env.timeout(1.0), env.timeout(3.0)
    barrier = AllOf(env, [a, b])
    env.run()
    assert barrier.triggered
    assert set(barrier.value.values()) == {None, None} or len(barrier.value) == 2


def test_allof_empty_fires_immediately(env):
    barrier = AllOf(env, [])
    env.run()
    assert barrier.triggered and barrier.ok


def test_anyof_fires_on_first(env):
    a, b = env.timeout(1.0, value="a"), env.timeout(3.0, value="b")
    race = AnyOf(env, [a, b])
    done_at = []
    race.callbacks.append(lambda ev: done_at.append(env.now))
    env.run()
    assert done_at == [1.0]
    assert a in race.value


def test_allof_propagates_failure(env):
    good = env.timeout(1.0)
    bad = env.event()
    barrier = AllOf(env, [good, bad])
    caught = []

    def watcher(e):
        yield barrier

    proc = env.process(watcher(env))
    bad.fail(RuntimeError("child died"))
    with pytest.raises(RuntimeError, match="child died"):
        env.run(until=proc)


def test_and_or_operators(env):
    a, b = env.timeout(1.0), env.timeout(2.0)
    combo = a & b
    assert isinstance(combo, AllOf)
    c, d = env.timeout(1.0), env.timeout(2.0)
    race = c | d
    assert isinstance(race, AnyOf)
    env.run()


def test_cross_environment_mixing_rejected(env):
    other = Environment()
    a = env.timeout(1.0)
    b = other.timeout(1.0)
    with pytest.raises(SimulationError):
        AllOf(env, [a, b])
