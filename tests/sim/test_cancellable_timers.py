"""Kernel semantics of cancelled timers, and the wakeups they save.

An event exists only for model work: a cancelled timeout is dropped when
its time comes — no callback runs and no event is counted — while the
clock and a drained run's final ``now`` treat it as a queue
entry whose callbacks do nothing, exactly as an uncancelled stale wakeup
behaved before timers could be cancelled.
"""

import pytest

from repro.errors import SimulationError
from repro.hardware.cpu import HostCpu
from repro.sim.events import NORMAL
from repro.sim.fairshare import FairShare


def test_cancelled_timer_callbacks_never_run(env):
    fired = []
    timer = env.timeout(2.0)
    timer.callbacks.append(lambda ev: fired.append("cancelled"))
    env.timeout(1.0).callbacks.append(lambda ev: fired.append("live"))
    timer.cancel()
    env.run()
    assert fired == ["live"]


def test_cancelled_timer_is_not_counted(env):
    env.timeout(1.0)
    env.timeout(2.0).cancel()
    env.timeout(3.0)
    env.run()
    assert env.events_processed == 2


def test_cancelled_timer_is_not_counted_by_run(env):
    for delay in (1.0, 2.0, 3.0):
        env.timeout(delay).cancel()
    env.run()
    assert env.events_processed == 0


def test_drained_run_ends_at_the_last_entry_even_if_cancelled(env):
    env.timeout(1.0)
    env.timeout(5.0).cancel()
    env.run()
    assert env.now == 5.0


def test_run_until_time_passes_over_cancelled_entries(env):
    env.timeout(1.0).cancel()
    env.run(until=3.0)
    assert env.now == 3.0
    assert env.events_processed == 1  # the ``until`` marker itself


def test_cancel_after_processing_is_a_no_op(env):
    timer = env.timeout(1.0)
    env.run()
    timer.cancel()
    assert timer.processed
    assert env.events_processed == 1


def test_cancelled_timer_cannot_be_waited_on(env):
    timer = env.timeout(1.0)
    timer.cancel()
    assert timer.processed
    with pytest.raises(SimulationError, match="processed"):
        timer.wait(lambda ev: None)


def test_same_instant_submits_process_one_wakeup(env):
    share = FairShare(env, capacity=4.0)
    tasks = [share.submit(1.0) for _ in range(8)]
    env.run()
    # 8 tasks at rate 0.5 each finish together at t=2; the 7 wakeups the
    # later submits superseded were cancelled, so the run processed one
    # wakeup plus one completion per task.
    assert all(t.finished_at == pytest.approx(2.0) for t in tasks)
    assert env.events_processed == 1 + len(tasks)


def _live_entries(env):
    return [entry for entry in env._queue if entry[3].callbacks is not None]


def test_superseded_wakeup_is_cancelled(env):
    share = FairShare(env, capacity=1.0)
    first = share.submit(4.0)
    share.submit(1.0)  # shares the capacity: the first task's rate halves
    # Same-instant submits arm nothing until the instant ends...
    assert share._wakeup is None and _live_entries(env) == []
    env.run(until=1.0)
    # ...then exactly one wakeup, at the second task's completion, queued
    # under the sequence number the second submit drew (the first drew 0).
    wakeup = share._wakeup
    assert wakeup is not None and not wakeup.processed
    assert _live_entries(env) == [(2.0, NORMAL, 1, wakeup)]
    env.run()
    assert first.finished_at == pytest.approx(5.0)


def test_wakeup_armed_at_an_earlier_instant_is_cancelled(env):
    share = FairShare(env, capacity=1.0)
    first = share.submit(4.0)
    env.run(until=1.0)
    stale = share._wakeup
    share.submit(1.0)  # the wakeup armed at t=0 (for t=4) is now stale
    assert stale.processed and share._wakeup is None
    env.run()
    # 1 unit alone, 1 in 2 s at half rate, then the last 2 alone.
    assert first.finished_at == pytest.approx(5.0)


def test_single_thread_compute_returns_its_task_event(env):
    cpu = HostCpu(env, cores=2)
    done = cpu.run_parallel(1.5, nthreads=1, label="rank")
    assert cpu.runnable_threads == 1
    env.run(until=done)
    assert env.now == pytest.approx(1.5)
    # One wakeup and the task's own completion: no barrier event.
    assert env.events_processed == 2
    assert done.value.label == "rank[0]"
