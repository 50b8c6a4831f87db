"""Unit tests: RNG registry determinism and the tracer."""

from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer


# -- RngRegistry -------------------------------------------------------------


def test_same_seed_same_streams():
    a = RngRegistry(seed=7).stream("hotplug").random(5)
    b = RngRegistry(seed=7).stream("hotplug").random(5)
    assert list(a) == list(b)


def test_different_names_independent():
    registry = RngRegistry(seed=7)
    a = registry.stream("a").random(5)
    b = registry.stream("b").random(5)
    assert list(a) != list(b)


def test_different_seeds_differ():
    a = RngRegistry(seed=1).stream("x").random(3)
    b = RngRegistry(seed=2).stream("x").random(3)
    assert list(a) != list(b)


def test_stream_cached():
    registry = RngRegistry()
    assert registry.stream("x") is registry.stream("x")


def test_jitter_zero_std_exact():
    registry = RngRegistry()
    assert registry.jitter("x", 29.85, rel_std=0.0) == 29.85


def test_jitter_positive_and_near_mean():
    registry = RngRegistry(seed=3)
    samples = [registry.jitter("linkup", 30.0, rel_std=0.05) for _ in range(100)]
    assert all(s >= 0 for s in samples)
    assert 28.0 < sum(samples) / len(samples) < 32.0


# -- Tracer --------------------------------------------------------------------


def test_tracer_records_and_selects():
    tracer = Tracer()
    tracer.emit(1.0, "vmm", "boot", vm="vm1")
    tracer.emit(2.0, "mpi", "send", rank=0)
    tracer.emit(3.0, "vmm", "shutdown", vm="vm1")
    assert len(tracer) == 3
    assert [r.event for r in tracer.select("vmm")] == ["boot", "shutdown"]
    assert tracer.first("mpi", "send").fields["rank"] == 0


def test_tracer_clear():
    tracer = Tracer()
    tracer.emit(1.0, "c", "e")
    tracer.clear()
    assert len(tracer) == 0


def test_tracer_jsonl_roundtrip():
    import json

    tracer = Tracer()
    tracer.emit(1.5, "migration", "start", vm="vm1", nbytes=100)
    tracer.emit(2.5, "migration", "end", hosts=["a", "b"], meta={"x": 1})
    lines = tracer.to_jsonl().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first == {
        "time": 1.5, "category": "migration", "event": "start",
        "vm": "vm1", "nbytes": 100,
    }
    second = json.loads(lines[1])
    assert second["hosts"] == ["a", "b"]
    assert second["meta"] == {"x": 1}


def test_tracer_jsonl_coerces_odd_values():
    import json

    class Odd:
        def __str__(self):
            return "odd!"

    tracer = Tracer()
    tracer.emit(0.0, "c", "e", thing=Odd())
    assert json.loads(tracer.to_jsonl())["thing"] == "odd!"


# -- subscriptions --------------------------------------------------------------


def test_subscribe_delivers_matching_records():
    tracer = Tracer()
    seen = []
    tracer.subscribe("migration.round", seen.append)
    tracer.emit(1.0, "migration", "round", index=1)
    tracer.emit(2.0, "migration", "start")
    tracer.emit(3.0, "chaos", "round")
    assert [(r.time, r.category) for r in seen] == [(1.0, "migration")]


def test_subscribe_glob_patterns():
    tracer = Tracer()
    chaos, everything = [], []
    tracer.subscribe("chaos.*", chaos.append)
    tracer.subscribe("*", everything.append)
    tracer.emit(1.0, "chaos", "drop")
    tracer.emit(2.0, "migration", "round")
    assert [r.event for r in chaos] == ["drop"]
    assert [r.event for r in everything] == ["drop", "round"]


def test_subscribe_only_sees_future_records():
    tracer = Tracer()
    tracer.emit(1.0, "c", "old")
    seen = []
    tracer.subscribe("*", seen.append)
    tracer.emit(2.0, "c", "new")
    assert [r.event for r in seen] == ["new"]


def test_unsubscribe_stops_delivery_and_is_idempotent():
    tracer = Tracer()
    seen = []
    unsubscribe = tracer.subscribe("*", seen.append)
    tracer.emit(1.0, "c", "a")
    unsubscribe()
    unsubscribe()  # second call is harmless
    tracer.emit(2.0, "c", "b")
    assert [r.event for r in seen] == ["a"]


def test_callback_may_unsubscribe_mid_dispatch():
    tracer = Tracer()
    seen = []
    holder = {}

    def once(record):
        seen.append(record.event)
        holder["off"]()

    holder["off"] = tracer.subscribe("*", once)
    tracer.emit(1.0, "c", "a")
    tracer.emit(2.0, "c", "b")
    assert seen == ["a"]


# -- batched emission -----------------------------------------------------------


def test_emit_batch_records_and_counts():
    tracer = Tracer()
    n = tracer.emit_batch(
        5.0, "telemetry", [("goodput", {"v": 1}), ("loss", {"v": 2})]
    )
    assert n == 2
    assert [r.event for r in tracer.records] == ["goodput", "loss"]
    assert all(r.time == 5.0 and r.category == "telemetry" for r in tracer.records)


def test_emit_batch_dispatches_each_record_to_subscribers():
    tracer = Tracer()
    seen = []
    tracer.subscribe("c.*", seen.append)
    tracer.emit_batch(1.0, "c", [("a", {}), ("b", {})])
    assert [r.event for r in seen] == ["a", "b"]


def test_emit_batch_empty_is_fine():
    tracer = Tracer()
    assert tracer.emit_batch(0.0, "c", []) == 0
    assert len(tracer) == 0


def test_tracer_save_streams_identical_to_jsonl(tmp_path):
    tracer = Tracer()
    tracer.emit(1.0, "a", "x", n=1)
    tracer.emit(2.0, "b", "y", hosts=["h0", "h1"])
    path = tmp_path / "out.jsonl"
    assert tracer.save(path) == 2
    assert path.read_text() == tracer.to_jsonl() + "\n"


def test_tracer_save_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    assert Tracer().save(path) == 0
    assert path.read_text() == ""


def test_tracer_iter_jsonl_is_lazy():
    tracer = Tracer()
    tracer.emit(1.0, "a", "x")
    it = tracer.iter_jsonl()
    tracer.emit(2.0, "a", "y")
    # Generator observes records appended before iteration finishes.
    assert len(list(it)) == 2
