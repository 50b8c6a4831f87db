"""Structured tracing of simulation events.

Components emit :class:`TraceRecord` entries ("vm3 paused", "BTL tcp
selected", "migration round 2: 1.2 GiB") through a shared :class:`Tracer`.
The experiment harnesses use traces to build the phase breakdowns the
paper's figures report (hotplug / link-up / migration / application).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any, Callable, Iterable, Iterator, Optional


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry."""

    time: float
    category: str
    event: str
    fields: dict = field(default_factory=dict)

    def __str__(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return f"[{self.time:10.4f}] {self.category:<12} {self.event} {extras}".rstrip()


class Tracer:
    """Collects :class:`TraceRecord` entries.

    Live consumers (the incident-response :class:`~repro.incident.telemetry.TelemetryBus`)
    attach via :meth:`subscribe` and receive each record as it is emitted,
    so they never re-scan ``records`` history.  Subscription dispatch is
    skipped entirely while no subscriber is registered, keeping the hot
    write path a bare list append.
    """

    def __init__(self) -> None:
        self.records: list[TraceRecord] = []
        # (pattern, callback) pairs; patterns glob against "category.event".
        self._subscribers: list[tuple[str, Callable[[TraceRecord], None]]] = []
        # topic -> matching callbacks, amortizing the fnmatch scan across
        # the many records hot producers emit under one topic (per-round
        # migration stats, per-tick probe samples).  Invalidated whenever
        # the subscriber list changes.
        self._topic_cache: dict[str, tuple[Callable[[TraceRecord], None], ...]] = {}

    def subscribe(
        self, pattern: str, callback: Callable[[TraceRecord], None]
    ) -> Callable[[], None]:
        """Invoke ``callback`` for every future record matching ``pattern``.

        ``pattern`` is a glob matched against ``"{category}.{event}"``
        (e.g. ``"chaos.*"``, ``"migration.round"``, ``"*"``).  Only records
        emitted *after* subscribing are delivered — consumers that need
        history walk :attr:`records` once at attach time.  Returns an
        unsubscribe callable.
        """
        entry = (pattern, callback)
        self._subscribers.append(entry)
        self._topic_cache.clear()

        def unsubscribe() -> None:
            try:
                self._subscribers.remove(entry)
            except ValueError:
                pass  # already unsubscribed
            else:
                self._topic_cache.clear()

        return unsubscribe

    def emit(self, time: float, category: str, event: str, **fields: Any) -> None:
        """Record one entry and deliver it to matching subscribers."""
        record = TraceRecord(time=time, category=category, event=event, fields=fields)
        self.records.append(record)
        if self._subscribers:
            self._dispatch(record)

    def emit_batch(
        self, time: float, category: str, entries: Iterable[tuple[str, dict]]
    ) -> int:
        """Record many same-category entries in one call; returns the count.

        Batching amortizes the per-call overhead for hot producers
        (per-link telemetry probes sample every link each tick).  Each
        entry is an ``(event, fields)`` pair; subscribers still see every
        record individually.
        """
        batch = [
            TraceRecord(time=time, category=category, event=event, fields=fields)
            for event, fields in entries
        ]
        self.records.extend(batch)
        if self._subscribers:
            for record in batch:
                self._dispatch(record)
        return len(batch)

    def _dispatch(self, record: TraceRecord) -> None:
        topic = f"{record.category}.{record.event}"
        callbacks = self._topic_cache.get(topic)
        if callbacks is None:
            # First record under this topic since the subscriber list last
            # changed: run the glob scan once and cache the match set.  A
            # callback that unsubscribes mid-dispatch clears the cache, and
            # the cached tuple is a snapshot, so dispatch stays safe.
            callbacks = tuple(
                callback
                for pattern, callback in self._subscribers
                if fnmatchcase(topic, pattern)
            )
            self._topic_cache[topic] = callbacks
        for callback in callbacks:
            callback(record)

    def select(
        self, category: Optional[str] = None, event: Optional[str] = None
    ) -> Iterator[TraceRecord]:
        """Iterate records matching the given category/event."""
        for record in self.records:
            if category is not None and record.category != category:
                continue
            if event is not None and record.event != event:
                continue
            yield record

    def first(self, category: str, event: str) -> Optional[TraceRecord]:
        """First matching record, or ``None``."""
        return next(self.select(category, event), None)

    def last(self, category: str, event: str) -> Optional[TraceRecord]:
        """Last matching record, or ``None``."""
        result = None
        for record in self.select(category, event):
            result = record
        return result

    def count(self, category: str, event: Optional[str] = None) -> int:
        """Number of records matching the given category (and event).

        Convenience for failure-path assertions, e.g.
        ``tracer.count("ninja", "retry")`` or
        ``tracer.count("ninja", "aborted")``.
        """
        return sum(1 for _ in self.select(category, event))

    def series(self, category: str, event: str, field: str) -> list:
        """Ordered values of one field across matching records.

        Convenience for per-round migration telemetry, e.g.
        ``tracer.series("migration", "round", "wire_bytes")`` or
        ``tracer.series("migration", "auto_converge", "throttle")`` —
        the raw material of the degraded-WAN figures.
        """
        return [
            record.fields[field]
            for record in self.select(category, event)
            if field in record.fields
        ]

    def clear(self) -> None:
        """Drop all collected records."""
        self.records.clear()

    def iter_jsonl(self) -> Iterator[str]:
        """Yield each record as one JSON line (no trailing newline)."""
        import json

        for record in self.records:
            yield json.dumps(
                {
                    "time": record.time,
                    "category": record.category,
                    "event": record.event,
                    **{k: _jsonable(v) for k, v in record.fields.items()},
                },
                sort_keys=True,
            )

    def save(self, path: str) -> int:
        """Write all records to ``path`` as JSON Lines; returns the count.

        Streams one line at a time so a multi-hour trace never needs a
        second full copy of itself as one giant string.
        """
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.iter_jsonl():
                fh.write(line)
                fh.write("\n")
        return len(self.records)

    def __len__(self) -> int:
        return len(self.records)


def _jsonable(value: Any) -> Any:
    """Best-effort JSON coercion for trace field values."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)
