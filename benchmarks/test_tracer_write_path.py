"""Tracer write-path micro-benchmark: subscriptions and batching.

The incident-response TelemetryBus hangs off the tracer, so the hot
write path must not regress: an idle tracer (no subscribers) stays a
bare list append, a subscribed consumer costs far less than re-scanning
``records`` every tick, and ``emit_batch`` amortizes per-call checks
for the per-link telemetry probes.

This is a real timing benchmark (many rounds), unlike the one-shot
figure regenerations: its numbers measure the host, so they go to the
untracked ``benchmarks/timings/``.
"""

from __future__ import annotations

import time

from repro.sim.trace import Tracer

N_RECORDS = 5_000
BATCH = 50


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_emit_hot_path_plain_append(benchmark):
    tracer = Tracer()

    def hot():
        tracer.clear()
        for i in range(N_RECORDS):
            tracer.emit(float(i), "telemetry", "goodput", link="wan", v=i)

    benchmark(hot)
    assert len(tracer) == N_RECORDS


def test_emit_batch_beats_looped_emit(benchmark, record_timing):
    entries = [("goodput", {"link": "wan", "v": i}) for i in range(BATCH)]
    rounds = N_RECORDS // BATCH

    def batched():
        tracer = Tracer()
        for t in range(rounds):
            tracer.emit_batch(float(t), "telemetry", entries)
        return tracer

    tracer = benchmark(batched)
    assert len(tracer) == N_RECORDS

    # Comparison sample outside the benchmark loop (deterministic sim,
    # but timing is noisy: assert only the structural invariant).
    looped = Tracer()
    looped_s = _timed(lambda: [
        looped.emit(float(i), "telemetry", "goodput", link="wan", v=i)
        for i in range(N_RECORDS)
    ])
    batch_s = _timed(batched)
    record_timing(
        "tracer_write_path",
        "\n".join([
            f"tracer write path — {N_RECORDS} records",
            f"  looped emit:  {looped_s * 1e3:8.2f} ms",
            f"  emit_batch:   {batch_s * 1e3:8.2f} ms (batch={BATCH})",
        ]),
    )


def test_subscription_beats_select_rescan(benchmark, record_timing):
    """A live subscriber vs. re-scanning history after every emit."""

    def with_subscription():
        tracer = Tracer()
        seen = []
        tracer.subscribe("migration.round", seen.append)
        for i in range(N_RECORDS):
            tracer.emit(float(i), "migration", "round", index=i)
        return seen

    seen = benchmark(with_subscription)
    assert len(seen) == N_RECORDS

    def with_rescan():
        tracer = Tracer()
        seen = []
        cursor = 0
        for i in range(N_RECORDS):
            tracer.emit(float(i), "migration", "round", index=i)
            # The pre-subscription idiom: poll the full history each tick.
            seen = list(tracer.select("migration", "round"))
            cursor = len(seen)
        return cursor

    sub_s = _timed(with_subscription)
    scan_s = _timed(with_rescan)
    assert sub_s < scan_s, (
        f"subscription {sub_s:.3f} s !< O(n^2) rescan {scan_s:.3f} s"
    )
    record_timing(
        "tracer_subscription",
        "\n".join([
            f"live consumer over {N_RECORDS} records",
            f"  subscribe():      {sub_s * 1e3:8.2f} ms",
            f"  select() rescan:  {scan_s * 1e3:8.2f} ms",
            f"  speedup:          {scan_s / max(sub_s, 1e-9):.1f}x",
        ]),
    )
