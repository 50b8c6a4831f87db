"""Unit + property tests: max-min fair sharing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.core import Environment
from repro.sim.fairshare import FairShare, maxmin_rates


# -- maxmin_rates (pure function) --------------------------------------------


def test_equal_weights_equal_rates():
    rates = maxmin_rates(10.0, [1.0, 1.0])
    assert rates == pytest.approx([5.0, 5.0])


def test_weighted_split():
    rates = maxmin_rates(9.0, [1.0, 2.0])
    assert rates == pytest.approx([3.0, 6.0])


def test_cap_redistributes():
    rates = maxmin_rates(10.0, [1.0, 1.0], caps=[2.0, float("inf")])
    assert rates == pytest.approx([2.0, 8.0])


def test_all_capped_leaves_capacity_unused():
    rates = maxmin_rates(10.0, [1.0, 1.0], caps=[1.0, 2.0])
    assert rates == pytest.approx([1.0, 2.0])


def test_zero_weight_rejected():
    with pytest.raises(SimulationError):
        maxmin_rates(10.0, [0.0, 1.0])


def test_mismatched_caps_rejected():
    with pytest.raises(SimulationError):
        maxmin_rates(10.0, [1.0], caps=[1.0, 2.0])


@given(
    capacity=st.floats(min_value=0.1, max_value=1e6),
    weights=st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=20),
    cap_value=st.floats(min_value=0.01, max_value=1e6),
)
@settings(max_examples=200)
def test_maxmin_invariants(capacity, weights, cap_value):
    """Rates never exceed capacity, caps, or go negative; work-conserving."""
    caps = [cap_value] * len(weights)
    rates = maxmin_rates(capacity, weights, caps)
    assert all(r >= 0 for r in rates)
    assert all(r <= cap_value + 1e-6 * cap_value for r in rates)
    total = sum(rates)
    assert total <= capacity * (1 + 1e-9) + 1e-9
    # Work conservation: either capacity is (nearly) used up, or every
    # task is at its cap.
    if total < capacity * (1 - 1e-6):
        assert all(r >= cap_value * (1 - 1e-6) for r in rates)


@given(
    weights=st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=2, max_size=10)
)
@settings(max_examples=100)
def test_maxmin_fairness_monotone(weights):
    """Uncapped allocation is proportional to weight."""
    rates = maxmin_rates(100.0, weights)
    ratios = [r / w for r, w in zip(rates, weights)]
    assert max(ratios) - min(ratios) < 1e-6 * max(ratios)


# -- FairShare service ----------------------------------------------------------


def test_single_task_full_rate(env):
    fs = FairShare(env, capacity=4.0)
    task = fs.submit(8.0)
    env.run()
    assert task.finished_at == pytest.approx(2.0)


def test_two_tasks_share(env):
    fs = FairShare(env, capacity=4.0)
    a = fs.submit(8.0)
    b = fs.submit(8.0)
    env.run()
    assert a.finished_at == pytest.approx(4.0)
    assert b.finished_at == pytest.approx(4.0)


def test_late_arrival_slows_first(env):
    fs = FairShare(env, capacity=2.0)
    results = {}

    def submit_late(env):
        yield env.timeout(1.0)
        task = fs.submit(2.0, label="late")
        yield task.done
        results["late"] = env.now

    first = fs.submit(4.0, label="first")
    env.process(submit_late(env))
    env.run()
    # First runs alone for 1 s (2 units), shares for 2 s (2 units): done at 3.
    assert first.finished_at == pytest.approx(3.0)
    assert results["late"] == pytest.approx(3.0)


def test_capped_task_leaves_room(env):
    fs = FairShare(env, capacity=10.0)
    capped = fs.submit(4.0, cap=2.0)
    free = fs.submit(16.0)
    env.run()
    assert capped.finished_at == pytest.approx(2.0)
    assert free.finished_at == pytest.approx(2.0)


def test_zero_amount_completes_instantly(env):
    fs = FairShare(env, capacity=1.0)
    task = fs.submit(0.0)
    env.run()
    assert task.finished_at == pytest.approx(0.0)


def test_cancel_stops_task(env):
    fs = FairShare(env, capacity=2.0)
    doomed = fs.submit(100.0)
    survivor = fs.submit(4.0)

    def cancel_later(env):
        yield env.timeout(1.0)
        fs.cancel(doomed)

    env.process(cancel_later(env))
    env.run()
    assert not doomed.finished
    # Survivor: 1 s at rate 1 (sharing) + 3 units at rate 2 alone.
    assert survivor.finished_at == pytest.approx(1.0 + 1.5)


@given(
    amounts=st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=1, max_size=8),
    capacity=st.floats(min_value=0.5, max_value=20.0),
)
@settings(max_examples=60, deadline=None)
def test_fairshare_conserves_work(amounts, capacity):
    """Total completion time ≥ total work / capacity; all tasks finish."""
    env = Environment()
    fs = FairShare(env, capacity=capacity)
    tasks = [fs.submit(a) for a in amounts]
    env.run()
    assert all(t.finished for t in tasks)
    makespan = max(t.finished_at for t in tasks)
    assert makespan >= sum(amounts) / capacity * (1 - 1e-6)
    # With equal weights and no caps the service is work-conserving:
    assert makespan == pytest.approx(sum(amounts) / capacity, rel=1e-6)
