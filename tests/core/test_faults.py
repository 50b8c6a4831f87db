"""Unit tests: the deterministic FaultInjector."""

import pytest

from repro.core.faults import FaultInjector, RetryPolicy
from repro.errors import FaultInjectionError, QmpError
from repro.sim.rng import RngRegistry
from tests.conftest import drive

pytestmark = pytest.mark.faults


@pytest.fixture
def injector(env):
    return FaultInjector(env)


# -- arming -------------------------------------------------------------------


def test_inert_until_armed(injector):
    injector.maybe_fail("ninja.detach")  # no specs: no-op
    assert not injector.active
    assert injector.calls("ninja.detach") == 0  # counters off while inert


def test_arm_and_fire_default_error(injector):
    injector.arm("ninja.detach")
    with pytest.raises(FaultInjectionError, match="ninja.detach"):
        injector.maybe_fail("ninja.detach")


def test_clear_resets_everything(injector):
    injector.arm("a", nth=5)
    injector.maybe_fail("a")
    injector.clear()
    assert not injector.active
    assert injector.calls("a") == 0
    assert injector.fired == []


def test_arm_validates_arguments(injector):
    with pytest.raises(ValueError):
        injector.arm("x", nth=0)
    with pytest.raises(ValueError):
        injector.arm("x", times=0)


# -- error shapes -------------------------------------------------------------


def test_error_instance_class_and_factory(injector):
    injector.arm("a", error=QmpError("GenericError", "boom"))
    with pytest.raises(QmpError, match="boom"):
        injector.maybe_fail("a")

    injector.arm("b", error=FaultInjectionError)
    with pytest.raises(FaultInjectionError, match="'b'"):
        injector.maybe_fail("b")

    injector.arm("c", error=lambda site: QmpError("GenericError", f"at {site}"))
    with pytest.raises(QmpError, match="at c"):
        injector.maybe_fail("c")


# -- Nth-call triggers --------------------------------------------------------


def test_nth_call_trigger(injector):
    injector.arm("site", nth=3)
    injector.maybe_fail("site")
    injector.maybe_fail("site")
    with pytest.raises(FaultInjectionError):
        injector.maybe_fail("site")
    # times=1 (transient): exhausted afterwards.
    injector.maybe_fail("site")
    assert injector.calls("site") == 4
    assert len(injector.fired) == 1
    assert injector.fired[0].call_index == 3


def test_times_fires_consecutive_calls(injector):
    injector.arm("site", nth=2, times=2)
    injector.maybe_fail("site")
    for _ in range(2):
        with pytest.raises(FaultInjectionError):
            injector.maybe_fail("site")
    injector.maybe_fail("site")  # exhausted


def test_pattern_matching_arms_whole_families(injector):
    injector.arm("qmp.*", times=2)
    with pytest.raises(FaultInjectionError):
        injector.maybe_fail("qmp.migrate")
    with pytest.raises(FaultInjectionError):
        injector.maybe_fail("qmp.device_del")
    injector.maybe_fail("ninja.detach")  # different family


# -- time-based triggers ------------------------------------------------------


def test_at_time_trigger(env, injector):
    injector.arm("site", at_time=10.0)

    def main():
        injector.maybe_fail("site")  # t=0: too early, does not fire
        yield env.timeout(10.0)
        with pytest.raises(FaultInjectionError):
            injector.maybe_fail("site")

    drive(env, main())
    assert injector.fired[0].time == pytest.approx(10.0)


def test_at_time_and_nth_compose(env, injector):
    # Fire on the 2nd call at or after t=5 (calls before t=5 don't count).
    injector.arm("site", nth=2, at_time=5.0)

    def main():
        injector.maybe_fail("site")
        yield env.timeout(5.0)
        injector.maybe_fail("site")  # 1st counted call
        with pytest.raises(FaultInjectionError):
            injector.maybe_fail("site")  # 2nd counted call: fires

    drive(env, main())


# -- generator sites (perturb) ------------------------------------------------


def test_perturb_raises_inside_process(env, injector):
    injector.arm("ninja.migration")

    def body():
        yield from injector.perturb("ninja.migration")
        return "unreachable"

    with pytest.raises(FaultInjectionError):
        drive(env, body())


def test_perturb_hang_parks_the_caller(env, injector):
    injector.arm("ninja.attach", hang=True)

    def body():
        yield from injector.perturb("ninja.attach")

    process = env.process(body(), name="hung")
    env.run(until=1000.0)
    assert process.is_alive  # still parked — nothing ever fires the event


def test_hang_rejected_at_synchronous_site(injector):
    injector.arm("sync.site", hang=True)
    with pytest.raises(FaultInjectionError, match="synchronous"):
        injector.maybe_fail("sync.site")


# -- retry policy delays ------------------------------------------------------


def test_retry_policy_exact_exponential_sequence():
    policy = RetryPolicy(max_attempts=4, base_delay_s=0.5, factor=2.0)
    assert [policy.delay(i) for i in range(3)] == [0.5, 1.0, 2.0]


def test_retry_policy_jitter_is_deterministic_per_seed():
    policy = RetryPolicy(max_attempts=3, base_delay_s=1.0, jitter_rel=0.1)

    def backoffs(seed):
        rng = RngRegistry(seed=seed)
        return [policy.delay(i, rng) for i in range(2)]

    a, b, c = backoffs(7), backoffs(7), backoffs(8)
    assert a == b
    assert a != c
    assert a != [1.0, 2.0]  # jitter actually applied
