"""Unit tests: generator-based processes."""

import pytest

from repro.errors import SimulationError
from repro.sim.process import Interrupt
from tests.conftest import drive


def test_process_returns_value(env):
    def main(env):
        yield env.timeout(1.0)
        return "result"

    assert drive(env, main(env)) == "result"
    assert env.now == 1.0


def test_process_is_waitable_event(env):
    def child(env):
        yield env.timeout(2.0)
        return 7

    def parent(env):
        value = yield env.process(child(env))
        return value * 6

    assert drive(env, parent(env)) == 42


def test_process_exception_propagates_to_waiter(env):
    def child(env):
        yield env.timeout(1.0)
        raise ValueError("child failed")

    def parent(env):
        try:
            yield env.process(child(env))
        except ValueError as err:
            return f"caught:{err}"

    assert drive(env, parent(env)) == "caught:child failed"


def test_unhandled_process_exception_crashes_run(env):
    def main(env):
        yield env.timeout(1.0)
        raise RuntimeError("unhandled")

    env.process(main(env))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_yield_non_event_fails_process(env):
    def main(env):
        yield "not an event"

    proc = env.process(main(env))
    with pytest.raises(SimulationError, match="non-event"):
        env.run(until=proc)


def test_interrupt_delivers_cause(env):
    def victim(env):
        try:
            yield env.timeout(100)
        except Interrupt as interrupt:
            return interrupt.cause

    def attacker(env, target):
        yield env.timeout(1.0)
        target.interrupt("reason-x")

    target = env.process(victim(env))
    env.process(attacker(env, target))
    assert env.run(until=target) == "reason-x"
    assert env.now == 1.0


def test_interrupt_finished_process_rejected(env):
    def quick(env):
        yield env.timeout(0.1)

    proc = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_self_interrupt_rejected(env):
    def main(env):
        with pytest.raises(SimulationError):
            env.active_process.interrupt()
        yield env.timeout(0)
        return True

    assert drive(env, main(env)) is True


def test_interrupted_process_can_continue(env):
    log = []

    def victim(env):
        for _ in range(3):
            try:
                yield env.timeout(10)
                log.append("slept")
            except Interrupt:
                log.append("interrupted")
        return log

    def attacker(env, target):
        yield env.timeout(1.0)
        target.interrupt()

    target = env.process(victim(env))
    env.process(attacker(env, target))
    env.run(until=target)
    assert log == ["interrupted", "slept", "slept"]


def test_is_alive_transitions(env):
    def main(env):
        yield env.timeout(1.0)

    proc = env.process(main(env))
    assert proc.is_alive
    env.run()
    assert not proc.is_alive


def test_immediate_chain_of_triggered_events(env):
    """Yielding already-processed events must not deadlock."""

    def main(env):
        done = env.event()
        done.succeed("x")
        yield env.timeout(0)
        value = yield done  # already processed by now
        return value

    assert drive(env, main(env)) == "x"
