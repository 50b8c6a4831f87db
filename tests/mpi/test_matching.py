"""The bucketed matching engine against a linear-scan reference.

``_ScanEngine`` is the matching logic the runtime used before the
engine kept per-(comm, src, tag) buckets: one FIFO mailbox of
envelopes, scanned with a filter per posted receive.  The property test
drives both engines with the same random deliver/post/cancel sequences
and requires the same matches, in the same order.
"""

from __future__ import annotations

from typing import Callable, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi.datatypes import ANY_SOURCE, ANY_TAG, Message
from repro.mpi.p2p import MatchingEngine
from repro.sim.core import Environment
from repro.sim.events import Event
from tests.conftest import unexpected_count


class _ScanGet(Event):
    __slots__ = ("filter", "_engine")

    def __init__(self, engine: "_ScanEngine", filter: Callable[[Message], bool]) -> None:
        super().__init__(engine.env)
        self.filter = filter
        self._engine = engine
        engine._getters.append(self)
        engine._serve()

    def cancel(self) -> None:
        if not self.triggered and self in self._engine._getters:
            self._engine._getters.remove(self)


class _ScanEngine:
    """Reference: a filtered FIFO mailbox served in getter-arrival order."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.items: list[Message] = []
        self._getters: list[_ScanGet] = []

    def deliver(self, message: Message) -> None:
        self.items.append(message)
        self._serve()

    def post_recv(self, src: int, tag: int, comm_id: int) -> _ScanGet:
        def _match(message: Message) -> bool:
            return message.comm_id == comm_id and message.matches(src, tag)

        return _ScanGet(self, _match)

    def _serve(self) -> None:
        progress = True
        while progress:
            progress = False
            for getter in list(self._getters):
                if getter.triggered:
                    self._getters.remove(getter)
                    continue
                index = self._find(getter.filter)
                if index is not None:
                    item = self.items.pop(index)
                    self._getters.remove(getter)
                    getter.succeed(item)
                    progress = True

    def _find(self, filter: Callable[[Message], bool]) -> Optional[int]:
        for i, item in enumerate(self.items):
            if filter(item):
                return i
        return None


# -- differential property -----------------------------------------------------------

_srcs = st.integers(0, 3)
_tags = st.integers(0, 2)
_comms = st.integers(0, 2)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("deliver"), _comms, _srcs, _tags),
        st.tuples(
            st.just("post"),
            _comms,
            st.one_of(st.just(ANY_SOURCE), _srcs),
            st.one_of(st.just(ANY_TAG), _tags),
        ),
        st.tuples(st.just("cancel"), st.integers(0, 40)),
    ),
    max_size=60,
)


def _run(engine_cls, ops, pending) -> list:
    """Apply ``ops``; return (op index, receive index, message index) per
    match, and ``pending(engine)`` after each op."""
    engine = engine_cls(Environment())
    receives: list = []
    messages: list = []
    matched = set()
    log = []
    for i, op in enumerate(ops):
        if op[0] == "deliver":
            _, comm, src, tag = op
            message = Message(src=src, dst=0, tag=tag, nbytes=1, comm_id=comm)
            messages.append(message)
            engine.deliver(message)
        elif op[0] == "post":
            _, comm, src, tag = op
            receives.append(engine.post_recv(src, tag, comm))
        elif receives:
            receives[op[1] % len(receives)].cancel()
        for r, recv in enumerate(receives):
            if r not in matched and recv.triggered:
                matched.add(r)
                log.append((i, r, next(m for m, msg in enumerate(messages) if msg is recv.value)))
        log.append(("pending", pending(engine)))
    return log


@settings(max_examples=300)
@given(_ops)
def test_bucketed_engine_matches_linear_scan(ops):
    assert _run(MatchingEngine, ops, unexpected_count) == _run(
        _ScanEngine, ops, lambda engine: len(engine.items)
    )


# -- ported mailbox cases -----------------------------------------------------------------


def _msg(src: int = 0, tag: int = 0, comm_id: int = 0, nbytes: int = 1) -> Message:
    """A hand-built envelope; tests tell messages apart by ``nbytes``."""
    return Message(src=src, dst=0, tag=tag, nbytes=nbytes, comm_id=comm_id)


def test_fifo_within_a_bucket(env):
    engine = MatchingEngine(env)
    engine.deliver(_msg(nbytes=10))
    engine.deliver(_msg(nbytes=20))
    first = engine.post_recv(0, 0, 0)
    second = engine.post_recv(0, 0, 0)
    env.run()
    assert (first.value.nbytes, second.value.nbytes) == (10, 20)


def test_filtered_recv_skips_nonmatching(env):
    engine = MatchingEngine(env)
    engine.deliver(_msg(tag=1))
    engine.deliver(_msg(tag=2))
    got = engine.post_recv(ANY_SOURCE, 2, 0)
    env.run()
    assert got.value.tag == 2
    assert unexpected_count(engine) == 1
    assert engine.post_recv(ANY_SOURCE, ANY_TAG, 0).value.tag == 1


def test_wildcard_takes_earliest_arrival_not_lowest_seq(env):
    """Arrival order decides, not creation order or source rank."""
    engine = MatchingEngine(env)
    early = _msg(src=1, nbytes=10)  # created first
    engine.deliver(_msg(src=2, nbytes=20))
    engine.deliver(early)
    assert engine.post_recv(ANY_SOURCE, 0, 0).value.nbytes == 20


def test_recv_blocks_until_delivery(env):
    engine = MatchingEngine(env)
    got = []

    def consumer(env):
        message = yield engine.post_recv(0, 0, 0)
        got.append((message.nbytes, env.now))

    def producer(env):
        yield env.timeout(3.0)
        engine.deliver(_msg(nbytes=30))

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [(30, 3.0)]


def test_cancelled_recv_does_not_steal(env):
    engine = MatchingEngine(env)
    results = {}

    def canceller(env):
        recv = engine.post_recv(ANY_SOURCE, ANY_TAG, 0)
        yield env.timeout(1.0)
        recv.cancel()
        results["cancelled"] = True

    def consumer(env):
        yield env.timeout(2.0)
        message = yield engine.post_recv(ANY_SOURCE, ANY_TAG, 0)
        results["nbytes"] = message.nbytes

    def producer(env):
        yield env.timeout(3.0)
        engine.deliver(_msg(nbytes=40))

    env.process(canceller(env))
    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert results == {"cancelled": True, "nbytes": 40}


def test_multiple_posted_receives_each_get_their_own(env):
    engine = MatchingEngine(env)
    got = {}

    def consumer(env, tag):
        yield engine.post_recv(ANY_SOURCE, tag, 0)
        got[tag] = env.now

    env.process(consumer(env, 1))
    env.process(consumer(env, 2))

    def producer(env):
        yield env.timeout(1.0)
        engine.deliver(_msg(tag=2))
        yield env.timeout(1.0)
        engine.deliver(_msg(tag=1))

    env.process(producer(env))
    env.run()
    assert got == {2: 1.0, 1: 2.0}
