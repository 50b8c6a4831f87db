"""Unit tests: Resource / PriorityResource / Container."""

import pytest

from repro.errors import SimulationError
from repro.sim.core import Environment
from repro.sim.resources import Container, PriorityResource, Resource


# -- Resource ---------------------------------------------------------------


def test_resource_serializes_users(env):
    resource = Resource(env, capacity=1)
    order = []

    def user(env, name, hold):
        with resource.request() as req:
            yield req
            order.append((name, env.now))
            yield env.timeout(hold)

    env.process(user(env, "a", 2.0))
    env.process(user(env, "b", 1.0))
    env.process(user(env, "c", 1.0))
    env.run()
    assert order == [("a", 0.0), ("b", 2.0), ("c", 3.0)]


def test_resource_capacity_two(env):
    resource = Resource(env, capacity=2)
    order = []

    def user(env, name):
        with resource.request() as req:
            yield req
            order.append((name, env.now))
            yield env.timeout(1.0)

    for name in "abc":
        env.process(user(env, name))
    env.run()
    assert order == [("a", 0.0), ("b", 0.0), ("c", 1.0)]


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_request_cancel_releases_queue_slot(env):
    resource = Resource(env, capacity=1)
    got = []

    def holder(env):
        with resource.request() as req:
            yield req
            yield env.timeout(5.0)

    def impatient(env):
        req = resource.request()
        yield env.timeout(1.0)
        req.cancel()
        got.append("cancelled")

    def patient(env):
        with resource.request() as req:
            yield req
            got.append(("patient", env.now))

    env.process(holder(env))
    env.process(impatient(env))
    env.process(patient(env))
    env.run()
    assert ("patient", 5.0) in got


def test_priority_resource_orders_waiters(env):
    resource = PriorityResource(env, capacity=1)
    order = []

    def holder(env):
        with resource.request(priority=0) as req:
            yield req
            yield env.timeout(1.0)

    def waiter(env, name, priority):
        with resource.request(priority=priority) as req:
            yield req
            order.append(name)

    env.process(holder(env))

    def spawn(env):
        yield env.timeout(0.1)
        env.process(waiter(env, "low", 10))
        env.process(waiter(env, "high", 1))
        env.process(waiter(env, "mid", 5))

    env.process(spawn(env))
    env.run()
    assert order == ["high", "mid", "low"]


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
