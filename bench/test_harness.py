"""Self-test of the benchmark harness: ``pytest bench -q``.

Kept out of the tier-1 suite (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import json
import re
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


class Clock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class Model:
    """Stand-in layer entry points: a call and a generator."""

    def __init__(self, clock: Clock) -> None:
        self.clock = clock

    def inner(self, dt: float) -> float:
        self.clock.now += dt
        return dt

    def outer(self, dt: float) -> float:
        self.clock.now += dt
        self.inner(2.0)
        self.clock.now += dt
        return dt

    def proc(self):
        self.clock.now += 1.0
        got = yield "first"
        self.inner(0.5)
        self.clock.now += got
        try:
            yield "second"
        except KeyError:
            self.clock.now += 0.25
        return "done"


@pytest.fixture
def traced():
    clock = Clock()
    rec = layers.SpanRecorder(clock=clock)
    layers._wrap(rec, Model, "outer", "outer", "outer.calls")
    layers._wrap(rec, Model, "inner", "inner", "inner.calls")
    layers._wrap(rec, Model, "proc", "proc", "proc.calls")
    yield rec, Model(clock)
    layers.uninstall(rec)


def test_self_time_of_nested_calls(traced):
    rec, model = traced
    assert model.outer(1.0) == 1.0
    model.inner(3.0)
    selfs = rec.self_times()
    assert selfs["outer"] == pytest.approx(2.0)
    assert selfs["inner"] == pytest.approx(5.0)
    assert rec.covered_s() == pytest.approx(7.0)
    assert rec.counts["outer.calls"] == 1 and rec.counts["inner.calls"] == 2


def test_generator_spans_time_each_resume(traced):
    rec, model = traced
    gen = model.proc()
    assert gen.__name__ == "proc"
    assert len(rec) == 0  # creating the generator runs no code
    assert next(gen) == "first"
    model.clock.now += 100.0  # suspended time belongs to no span
    assert gen.send(4.0) == "second"
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError("x"))
    assert stop.value.value == "done"
    selfs = rec.self_times()
    assert len(rec) == 4  # three resumes and the nested call
    assert selfs["proc"] == pytest.approx(1.0 + 4.0 + 0.25)
    assert selfs["inner"] == pytest.approx(0.5)
    assert rec.covered_s() == pytest.approx(5.75)


def test_spans_file_round_trips(traced, tmp_path):
    rec, model = traced
    model.outer(1.0)
    assert rec.write(tmp_path / "x.spans.jsonl") == 2
    spans = [json.loads(line) for line in (tmp_path / "x.spans.jsonl").read_text().splitlines()]
    assert [s["name"] for s in spans] == ["outer", "inner"]
    assert spans[1]["parent"] == spans[0]["id"] and spans[0]["parent"] == -1
    assert spans[1]["end"] - spans[1]["start"] == pytest.approx(2.0)


def test_metric_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


def test_declared_metrics_are_the_emitted_ones():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(scenarios.WORKLOADS)
    assert "setup_s" in run.E2E_UNITS


def test_wall_ref_divides_each_call_by_its_probe_time():
    child = {"walls": [2.0, 4.0, 3.0], "probes": [1.0, 1.0, 2.0]}
    assert run.wall_ref(child) == pytest.approx(2.0)  # median of 2, 4, 1.5
    assert run.wall_s(child) == 3.0


def test_speed_probe_samples_during_a_call_and_disarms():
    probe = run.SpeedProbe()
    with probe:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert 4 <= len(probe.times) <= 12
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with probe:  # too short for the timer: one sample after the call
        pass
    assert len(probe.times) == 1


def test_checks_name_each_failure():
    outcome = {"requested": 5, "completed": 3, "aborted": 0, "rejected": 1,
               "failed": 0, "lost_vms": 1, "sim_elapsed_s": 10.0,
               "flows_started": 4, "flows_completed": 3}
    failures = scenarios.check("scale_15min", 1, outcome)
    assert failures == ["settled 4 != requested 5", "lost VMs: 1",
                        "flows completed 3 != started 4"]


def test_compare_verdicts():
    def m(values, unit="s"):
        return run.summary(values, unit)

    base = m([1.0, 1.01, 0.99, 1.0])
    assert compare.verdict(base, m([1.02, 1.0, 1.01, 1.0]), 0.1, "lower") == "unchanged"
    assert compare.verdict(base, m([1.3, 1.31, 1.29, 1.3]), 0.1, "lower") == "regressed"
    assert compare.verdict(base, m([0.8, 0.81, 0.79, 0.8]), 0.1, "lower") == "improved"
    assert compare.verdict(base, m([0.5, 1.5, 1.0, 2.0]), 0.1, "lower") == "unresolved"
    assert compare.verdict(m([7, 7], "count"), m([7], "count"), 0.1, "higher") == "identical"
    assert compare.verdict(m([7], "count"), m([8], "count"), 0.1, "higher") == (
        "behaviour changed")


def test_wrappers_leave_a_small_scale_run_unchanged():
    from repro.orchestrator.continuous import ScaleConfig, run_scale_scenario

    config = ScaleConfig(n_vms=64, k=4, duration_s=120.0, arrival_rate_per_s=4.0, seed=3)

    def counts(result):
        d = result.to_dict()
        return {k: v for k, v in d.items() if not k.startswith("solver_")
                and k not in ("wall_s", "events_per_s", "wall_s_per_sim_hour")}

    plain = counts(run_scale_scenario(config))
    rec = layers.SpanRecorder()
    layers.install(rec)
    try:
        wrapped = counts(run_scale_scenario(config))
    finally:
        layers.uninstall(rec)
    assert wrapped == plain
    assert rec.counts["sim.events"] == plain["sim_events"]
    assert rec.counts["network.flows.starts"] == plain["flows_started"]
    assert rec.counts["orchestrator.continuous.requests"] == sum(plain["requests"].values())
    assert set(rec.self_times()) >= set(layers.LAYERS)
