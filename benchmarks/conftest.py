"""Shared helpers for the paper-reproduction benchmarks.

Every benchmark regenerates one table/figure of the paper, prints the
rows/series it produces next to the paper's reported values, and appends
the comparison to ``benchmarks/results/`` so EXPERIMENTS.md can cite a
concrete run.

The experiments are deterministic simulations, so each is executed once
(``benchmark.pedantic(..., rounds=1)``): the *benchmark time* is the wall
time of regenerating the figure, while the *figure's* numbers are in the
printed tables.

What a run measures of the host (wall clock, events per second, solver
latencies) goes to ``benchmarks/timings/`` instead, which git ignores:
the tracked files then change only when a simulated result does.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
TIMINGS_DIR = pathlib.Path(__file__).parent / "timings"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_result(results_dir):
    """Write a named result artifact and echo it to stdout."""

    def _record(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[written to {path}]")

    return _record


@pytest.fixture
def record_timing():
    """Write a named host-timing artifact (untracked) and echo it to stdout."""

    def _record(name: str, text: str) -> None:
        TIMINGS_DIR.mkdir(exist_ok=True)
        path = TIMINGS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[written to {path}]")

    return _record


def run_once(benchmark, fn):
    """Run a deterministic experiment exactly once under the benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
