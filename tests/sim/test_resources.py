"""Unit tests: Container."""

import pytest

from repro.errors import SimulationError
from repro.sim.resources import Container


# -- Container -----------------------------------------------------------------


def test_container_get_blocks_until_level(env):
    tank = Container(env, capacity=100, init=0)
    got = []

    def consumer(env):
        yield tank.get(30)
        got.append(env.now)

    def producer(env):
        yield env.timeout(1.0)
        tank.put(20)
        yield env.timeout(1.0)
        tank.put(20)

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [2.0]
    assert tank.level == pytest.approx(10)


def test_container_overflow_rejected(env):
    tank = Container(env, capacity=10, init=5)
    with pytest.raises(SimulationError):
        tank.put(6)


def test_container_get_more_than_capacity_rejected(env):
    tank = Container(env, capacity=10)
    with pytest.raises(SimulationError):
        tank.get(11)


def test_container_fifo_getters(env):
    tank = Container(env, capacity=100, init=0)
    order = []

    def consumer(env, name, amount):
        yield tank.get(amount)
        order.append(name)

    env.process(consumer(env, "first", 50))
    env.process(consumer(env, "second", 10))

    def producer(env):
        yield env.timeout(1.0)
        tank.put(60)

    env.process(producer(env))
    env.run()
    # FIFO: even though 10 could be served first, "first" waits in line.
    assert order == ["first", "second"]
