"""Scale campaign: continuous-arrival migration traffic at fleet size.

Open Poisson traffic (churn / consolidation / maintenance drains) over a
parameterized fat-tree, at three fleet sizes:

* **64 VMs** (k=4, 16 hosts) — the small config; gated against the
  committed baseline (``baselines/scale_baseline.json``): an events/sec
  floor, so a kernel regression fails CI, and the exact deterministic
  work counts, so a change in the work the same traffic costs fails on
  any machine;
* **256 VMs** (k=8, 128 hosts) — gated on its exact work counts from the
  same baseline file.  A solver that stops being contention-scoped
  fails here on any machine: flows touched would jump toward the
  global-resolve kernel's 2.75 M;
* **1,024 VMs** (k=16, 1,024 hosts) — one full simulated hour of
  continuous arrivals, the headline the roadmap asks for.

Writes each config's simulated work (migrations, events, flows, solves)
to ``BENCH_scale.json`` (repo root) and ``results/scale_*.txt``, and
what it measures of the host (events/sec, wall clock per simulated
hour, solver p50/p99) to the untracked ``timings/`` directory.
"""

from __future__ import annotations

import json
import pathlib

from repro.orchestrator.continuous import ScaleConfig, run_scale_scenario

from benchmarks.conftest import TIMINGS_DIR, run_once

ARTIFACT = pathlib.Path(__file__).parent.parent / "BENCH_scale.json"
TIMINGS = TIMINGS_DIR / "BENCH_scale.json"
BASELINE = pathlib.Path(__file__).parent / "baselines" / "scale_baseline.json"

#: Shared traffic shape: churn-dominated, mostly rack-local — the
#: production pattern the contention-scoped solver is built for.
_MIX = {"churn": 0.92, "consolidate": 0.04, "drain": 0.04}

CONFIG_64 = ScaleConfig(
    n_vms=64, k=4, vms_per_host=8, duration_s=600.0,
    arrival_rate_per_s=4.0, max_concurrent=64,
    rack_local_frac=0.9, mix=dict(_MIX), seed=7,
)
CONFIG_256 = ScaleConfig(
    n_vms=256, k=8, vms_per_host=4, duration_s=600.0,
    arrival_rate_per_s=20.0, max_concurrent=256,
    rack_local_frac=0.9, mix=dict(_MIX), seed=7,
)
CONFIG_1024 = ScaleConfig(
    n_vms=1024, k=16, vms_per_host=2, duration_s=3600.0,
    arrival_rate_per_s=12.0, max_concurrent=256,
    rack_local_frac=0.9, mix=dict(_MIX), seed=7,
)


#: ``ScaleResult.to_dict`` fields that measure the host, not the simulation.
_TIMING_FIELDS = (
    "wall_s", "solver_p50_s", "solver_p99_s", "solver_total_s",
    "events_per_s", "wall_s_per_sim_hour",
)


def _update(path: pathlib.Path, key: str, value: dict) -> None:
    data = json.loads(path.read_text()) if path.exists() else {}
    data[key] = value
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=2) + "\n")


def _update_artifact(key: str, result) -> None:
    """Work fields to ``BENCH_scale.json``, timing fields to ``timings/``."""
    payload = result.to_dict()
    timings = {name: payload.pop(name) for name in _TIMING_FIELDS}
    _update(ARTIFACT, key, payload)
    _update(TIMINGS, key, timings)


def _assert_exact_work(key: str, result) -> None:
    """Assert ``result``'s deterministic work equals the committed entry."""
    expected = json.loads(BASELINE.read_text())["work"][key]
    work = {name: getattr(result, name) for name in expected}
    assert work == expected, (
        f"{key} work counts moved: {work} != committed {expected} ({BASELINE})"
    )


def _work_line(r) -> str:
    return (
        f"  incremental      migrations={r.migrations_completed}  "
        f"events={r.sim_events}  flows={r.flows_completed}"
    )


def _timing_line(r) -> str:
    return (
        f"  incremental      {r.events_per_s:9.0f} ev/s  "
        f"{r.wall_s_per_sim_hour:7.1f} s wall/sim-hour  "
        f"solver p50={r.solver_p50_s * 1e6:6.1f} us p99={r.solver_p99_s * 1e6:6.1f} us"
    )


def test_scale_small_fleet_vs_baseline(benchmark, record_result, record_timing):
    result = run_once(benchmark, lambda: run_scale_scenario(CONFIG_64))

    assert result.migrations_completed > 1000
    assert result.rejected + result.migrations_completed == result.moves_requested
    assert result.duration_s >= CONFIG_64.duration_s

    _assert_exact_work("vms64", result)
    baseline = json.loads(BASELINE.read_text())
    floor = baseline["events_per_s_ref"] * (1.0 - baseline["max_regression_frac"])
    assert result.events_per_s >= floor, (
        f"scale kernel regressed: {result.events_per_s:.0f} ev/s is below the "
        f"committed floor of {floor:.0f} ev/s ({BASELINE})"
    )

    _update_artifact("vms64", result)
    title = "scale campaign — 64 VMs, k=4, 600 s of Poisson traffic"
    record_result("scale_64", "\n".join([
        title, _work_line(result), f"[artifact: {ARTIFACT.name}]",
    ]))
    record_timing("scale_64", "\n".join([
        title, _timing_line(result), f"  baseline floor   {floor:9.0f} ev/s",
    ]))


def test_scale_256_exact_work(benchmark, record_result, record_timing):
    result = run_once(benchmark, lambda: run_scale_scenario(CONFIG_256))

    assert result.rejected + result.migrations_completed == result.moves_requested
    assert result.duration_s >= CONFIG_256.duration_s
    _assert_exact_work("vms256", result)

    _update_artifact("vms256", result)
    title = "scale campaign — 256 VMs, k=8, 600 s of Poisson traffic"
    record_result("scale_256", "\n".join([
        title,
        _work_line(result),
        f"  flows touched    {result.solver_flows_touched:9d} "
        f"in {result.solver_calls} solves (exact, committed)",
        f"[artifact: {ARTIFACT.name}]",
    ]))
    record_timing("scale_256", "\n".join([title, _timing_line(result)]))


def test_scale_1024_continuous_hour(benchmark, record_result, record_timing):
    result = run_once(benchmark, lambda: run_scale_scenario(CONFIG_1024))

    assert result.duration_s >= 3600.0
    assert result.migrations_completed > 10_000
    assert result.n_hosts == 1024
    # The whole point of going incremental: a 1,024-VM hour must not cost
    # an hour.  Generous bound — 5–8 s on a 2-vCPU Xeon VM, headroom for CI.
    assert result.wall_s_per_sim_hour < 600.0

    _update_artifact("vms1024_hour", result)
    title = "scale campaign — 1,024 VMs, k=16, one simulated hour"
    record_result("scale_1024", "\n".join([
        title, _work_line(result), f"[artifact: {ARTIFACT.name}]",
    ]))
    record_timing("scale_1024", "\n".join([title, _timing_line(result)]))
