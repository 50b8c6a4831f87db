"""One solve per instant: ``FairShare`` against the eager service, under ``==``.

``FairShare`` marks its rates stale at each ``submit``, ``cancel`` and
wakeup and solves once, when the instant ends; each mark that would have
armed a wakeup draws the queue sequence number that wakeup would have
had.  :class:`~tests.sim.eager_fairshare.EagerFairShare` solves and arms
at every call.  A client process applies the same operations to each, at
shared and distinct instants: submits (zero amounts, mixed weights and
caps), cancels, zero-delay yields and utilization reads.  The test stops
both runs with ``run(until=…)`` at op instants, often mid-instant, then
drains them, and checks, with ``==`` throughout:

* each task's ``finished_at`` and ``remaining``, and the completion order;
* ``events_processed`` and ``now`` at every stop;
* every utilization read (a reader solves a stale share first);
* in the drain, the processed entries' queue keys ``(time, priority,
  sequence)``, one for one.  The eager run may hold more cancelled
  entries, and each must be a wakeup it cancelled in the instant that
  armed it;
* ``now`` after the drain.  A drained run ends at its last queue entry,
  cancelled or not, so it ends later in the eager run exactly when such
  a superseded wakeup was its last entry.
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.core import Environment
from repro.sim.fairshare import FairShare
from tests.sim.eager_fairshare import EagerFairShare

_INF = math.inf

#: Quarter steps keep the float arithmetic exact, so wakeups and client
#: steps often coincide: an op lands at the instant a wakeup is due.
_quarters = st.integers(1, 12).map(lambda q: q * 0.25)
_amounts = st.one_of(st.just(0.0), _quarters, _quarters, st.floats(0.01, 6.0))
_submit = st.tuples(
    st.just("submit"),
    _amounts,
    st.sampled_from([1.0, 0.5, 2.0, 3.0]),
    st.sampled_from([_INF, _INF, 0.5, 1.0, 2.5]),
)
_cancel = st.tuples(st.just("cancel"), st.integers(0, 20))
_wait = st.tuples(
    st.just("wait"), st.one_of(st.just(0.0), _quarters, _quarters, st.floats(0.01, 2.0))
)
_read = st.tuples(st.just("read"))
_ops = st.lists(st.one_of(_submit, _submit, _cancel, _wait, _wait, _read), max_size=40)


def _drive(share_cls, capacity, ops, stops):
    env = Environment()
    share = share_cls(env, capacity)
    tasks, completions, reads = [], [], []

    def client():
        for op in ops:
            if op[0] == "submit":
                _, amount, weight, cap = op
                task = share.submit(amount, weight=weight, cap=cap)
                index = len(tasks)
                task.done.callbacks.append(
                    lambda ev, i=index: completions.append((i, env.now))
                )
                tasks.append(task)
            elif op[0] == "cancel" and tasks:
                share.cancel(tasks[op[1] % len(tasks)])
            elif op[0] == "wait":
                yield env.timeout(op[1])
            elif op[0] == "read":
                reads.append((env.now, share.utilization))

    env.process(client())
    at_stops = []
    for at in stops:
        if at >= env.now:
            env.run(until=at)
        at_stops.append(
            (env.now, env.events_processed, [t.remaining for t in tasks], list(completions))
        )

    drained = []
    while True:
        env._end_instant_if_due()
        if not env._queue:
            break
        time, priority, seq, event = env._queue[0]
        drained.append((time, priority, seq, event.callbacks is None, event))
        env.step()
    return env, share, tasks, completions, reads, at_stops, drained


@given(
    capacity=st.sampled_from([1.0, 2.0, 3.5]),
    ops=_ops,
    stops=st.lists(st.integers(0, 24).map(lambda q: q * 0.25), max_size=4).map(sorted),
)
@example(  # a client step at the instant a re-armed wakeup is due, ahead of it
    capacity=1.0,
    ops=[("submit", 0.5, 1.0, _INF), ("submit", 1.5, 1.0, _INF), ("wait", 2.0),
         ("submit", 1.0, 1.0, _INF)],
    stops=[],
)
@example(  # a submit and a cancel in one instant: the eager run ends later
    capacity=1.0,
    ops=[("submit", 4.0, 1.0, _INF), ("submit", 1.0, 1.0, _INF), ("cancel", 0)],
    stops=[],
)
@example(  # a stop between two submits of one instant, then a read
    capacity=2.0,
    ops=[("wait", 1.0), ("submit", 1.0, 1.0, _INF), ("wait", 0.0),
         ("submit", 2.0, 2.0, 1.0), ("read",)],
    stops=[0.0, 1.0],
)
@settings(max_examples=300, deadline=None)
def test_batched_fairshare_matches_the_eager_service(capacity, ops, stops):
    b_env, _, b_tasks, b_done, b_reads, b_stops, b_drained = _drive(
        FairShare, capacity, ops, stops
    )
    e_env, eager, e_tasks, e_done, e_reads, e_stops, e_drained = _drive(
        EagerFairShare, capacity, ops, stops
    )

    assert b_stops == e_stops
    assert b_reads == e_reads
    assert b_done == e_done
    assert [(t.finished_at, t.remaining) for t in b_tasks] == [
        (t.finished_at, t.remaining) for t in e_tasks
    ]
    assert b_env.events_processed == e_env.events_processed

    # Every entry the batched run processed, the eager run processed under
    # the same key; the eager run's extras are same-instant superseded
    # wakeups.
    b_keys = {entry[:4] for entry in b_drained}
    e_keys = {entry[:4] for entry in e_drained}
    assert [e[:4] for e in b_drained if not e[3]] == [e[:4] for e in e_drained if not e[3]]
    assert b_keys <= e_keys
    superseded = {id(timer) for timer in eager.superseded}
    extras = [e for e in e_drained if e[:4] not in b_keys]
    assert all(cancelled and id(event) in superseded for *_, cancelled, event in extras)

    if b_env.now != e_env.now:
        assert b_env.now < e_env.now == max(e[0] for e in extras)
