"""Point-to-point plumbing: message matching and outstanding-send tracking.

The matching engine keeps, per process, the posted receives that wait
for a message and the unexpected messages that wait for a receive.
Unexpected messages sit in one FIFO bucket per ``(comm_id, src, tag)``,
so a fully specified receive matches in O(1); a wildcard receive
(``ANY_SOURCE`` / ``ANY_TAG``) takes, among the heads of the matching
buckets, the message that arrived first.  Either way a receive gets the
earliest-arrived matching message, and a message goes to the earliest
posted matching receive.  Receives are *cancellable* so the progress
engine can abandon a blocked receive to service a checkpoint request —
without this, a rank blocked in ``MPI_Recv`` would deadlock the CRCP
quiesce.
"""

from __future__ import annotations

from collections import deque
from itertools import count
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.mpi.datatypes import ANY_SOURCE, ANY_TAG, Message
from repro.sim.events import AllOf, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment

#: Bucket key of an unexpected message: (comm_id, src, tag).
_Key = tuple[int, int, int]


class PostedRecv(Event):
    """A posted receive; fires with the matched :class:`Message`."""

    __slots__ = ("src", "tag", "comm_id", "_engine")

    def __init__(self, engine: "MatchingEngine", src: int, tag: int, comm_id: int) -> None:
        super().__init__(engine.env)
        self.src = src
        self.tag = tag
        self.comm_id = comm_id
        self._engine = engine

    def cancel(self) -> None:
        """Withdraw an unmatched receive (it will never steal a message)."""
        if not self.triggered and self in self._engine._posted:
            self._engine._posted.remove(self)


class MatchingEngine:
    """Receive-side matching for one MPI process."""

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Unexpected messages per bucket, each tagged with its arrival number.
        self._unexpected: dict[_Key, deque[tuple[int, Message]]] = {}
        #: Unmatched posted receives, in posting order.
        self._posted: list[PostedRecv] = []
        self._arrivals = count()
        #: Envelopes delivered (diagnostics).
        self.delivered = 0

    def deliver(self, message: Message) -> None:
        """Transport completed: hand the envelope to a posted receive or queue it."""
        self.delivered += 1
        for recv in self._posted:
            if message.comm_id == recv.comm_id and message.matches(recv.src, recv.tag):
                self._posted.remove(recv)
                recv.succeed(message)
                return
        key = (message.comm_id, message.src, message.tag)
        bucket = self._unexpected.get(key)
        if bucket is None:
            bucket = self._unexpected[key] = deque()
        bucket.append((next(self._arrivals), message))

    def post_recv(self, src: int, tag: int, comm_id: int) -> PostedRecv:
        """Post a receive; the returned (cancellable) event yields the message."""
        recv = PostedRecv(self, src, tag, comm_id)
        key = self._earliest_match(src, tag, comm_id)
        if key is None:
            self._posted.append(recv)
            return recv
        bucket = self._unexpected[key]
        _, message = bucket.popleft()
        if not bucket:
            del self._unexpected[key]
        recv.succeed(message)
        return recv

    def _earliest_match(self, src: int, tag: int, comm_id: int) -> Optional[_Key]:
        """Bucket holding the earliest-arrived message a receive would match."""
        if src != ANY_SOURCE and tag != ANY_TAG:
            key = (comm_id, src, tag)
            return key if key in self._unexpected else None
        best: Optional[_Key] = None
        best_arrival = 0
        for key, bucket in self._unexpected.items():
            c, s, t = key
            if c == comm_id and src in (ANY_SOURCE, s) and tag in (ANY_TAG, t):
                arrival = bucket[0][0]
                if best is None or arrival < best_arrival:
                    best, best_arrival = key, arrival
        return best

    def pending_count(self) -> int:
        """Unexpected messages currently queued."""
        return sum(len(bucket) for bucket in self._unexpected.values())


class SendTracker:
    """Runs non-blocking sends and tracks them so quiesce can drain them.

    The CRCP coordination protocol must reach a state with no in-flight
    traffic before checkpointing; :meth:`drain` is the event it waits on.
    A blocking send runs inside its rank, which cannot quiesce until the
    send returns, so only non-blocking sends are tracked.
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._outstanding: set[Event] = set()
        #: Sends issued, blocking and non-blocking (diagnostics).
        self.total_sends = 0

    def start(self, send: Generator[Event, Any, Any]) -> Event:
        """Run the BTL send generator ``send``; returns its completion event.

        The send is driven from event callbacks, not by a process: its
        first step runs now, inside the caller, and each later step when
        the event it yielded is processed.  The completion event succeeds
        when the generator returns, or fails with what it raised, and is
        scheduled where a send process would have scheduled itself, so
        waiters resume in the same order.  A failure nobody waits on
        stops the run like any unhandled failed event.
        """
        self.total_sends += 1
        done = Event(self.env)
        self._outstanding.add(done)
        done.callbacks.append(self._outstanding.discard)
        _SendDriver(send, done).resume(None)
        return done

    @property
    def in_flight(self) -> int:
        return len(self._outstanding)

    def drain(self) -> Event:
        """Event firing once every tracked send has completed."""
        if not self._outstanding:
            event = Event(self.env)
            event.succeed()
            return event
        return AllOf(self.env, list(self._outstanding))


class _SendDriver:
    """Advances one send generator from the callbacks of what it yields."""

    __slots__ = ("_send", "_done")

    def __init__(self, send: Generator[Event, Any, Any], done: Event) -> None:
        self._send = send
        self._done = done

    def resume(self, event: Optional[Event]) -> None:
        """Feed ``event``'s outcome (nothing, to start) into the generator."""
        send = self._send
        while True:
            try:
                if event is None:
                    target = send.send(None)
                elif event._ok:
                    target = send.send(event._value)
                else:
                    event._defused = True  # the send takes the failure
                    target = send.throw(event._value)
            except StopIteration as stop:
                self._done.succeed(stop.value)
                return
            except Exception as err:
                self._done.fail(err)
                return
            if target.callbacks is not None:
                target.callbacks.append(self.resume)
                return
            event = target  # already processed: continue at once
