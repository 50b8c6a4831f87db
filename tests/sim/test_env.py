"""Unit tests: Environment run loop semantics."""

import pytest

from repro.errors import SimulationError


def test_run_until_time(env):
    fired = []
    t = env.timeout(5.0)
    t.callbacks.append(lambda ev: fired.append(env.now))
    env.run(until=3.0)
    assert env.now == 3.0
    assert fired == []
    env.run(until=10.0)
    assert fired == [5.0]


def test_run_until_past_rejected(env):
    env.run(until=2.0)
    with pytest.raises(SimulationError):
        env.run(until=1.0)


def test_step_empty_queue_raises(env):
    with pytest.raises(SimulationError):
        env.step()


def test_run_until_pending_event_deadlock_detected(env):
    never = env.event()
    with pytest.raises(SimulationError, match="deadlock"):
        env.run(until=never)


def test_run_until_already_processed_event(env):
    event = env.event()
    event.succeed("v")
    env.run()
    assert env.run(until=event) == "v"


def test_run_until_idle_counts_events(env):
    for _ in range(5):
        env.timeout(1.0)
    env.run()
    assert env.events_processed == 5
