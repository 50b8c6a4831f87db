"""Run the repository benchmark.

One workload, as ``BENCHMARK.json`` declares it (the last line printed is
the JSON result)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, round-robin, then one traced run each; writes the results
file that ``bench/compare.py`` reads::

    python3 bench/run.py [--seed N] [--samples 5] [--seconds 5] [--out PATH]

Each measurement is a fresh child interpreter, one at a time, with numeric
libraries held to one thread.  The child builds the workload's config,
makes the entry call once to warm up, then repeats it for ``--seconds``
and reports the wall time of every repeat and the host's speed during
it, as sampled by :class:`SpeedProbe`: ``wall_ref`` is the median of each
call's time over its mean probe time.
``setup_s`` runs from the spawn to the entry call (interpreter start,
imports, config build); it is the median over several children that only
set up.  ``peak_rss_mb`` is the measuring child's peak resident set after
its first call.  The simulated outcome of every call is checked
(:func:`scenarios.check`) and must be the same in every call of a
workload and seed, traced or not.

Exit status: 0 when every check passed; 1 when one failed, each failed
check named on stderr; 2 when a child could not run at all (no result is
printed then).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import scenarios  # noqa: E402

#: End-to-end metrics and their units; ``sim_s`` is simulated time and
#: ``ref`` multiples of the time :class:`SpeedProbe`'s task takes.
E2E_UNITS = {
    "wall_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "migrations_completed": "count",
    "sim_elapsed_s": "sim_s",
}

#: Per-layer metrics of the traced run and their units.
LAYER_UNITS = {
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
    "trace.covered_pct": "%",
    **{f"{layer}.self_pct": "%" for layer in layers.LAYERS},
    **{name: "count" for name in layers.COUNTERS},
    "network.flows.solver_p99_us": "us",
    "vmm.migration.resend_ratio": "ratio",
}

#: Children that only set up, per single-workload run; ``setup_s`` is the
#: median of their start-ups and the measuring child's.
SETUP_CHILDREN = 6
#: Default seconds of timed repeats: per run, and per sample of the
#: all-workload form.
RUN_SECONDS = 20.0
SAMPLE_SECONDS = 5.0
#: A child that runs longer than this is killed.
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class ChildFailed(RuntimeError):
    """A child interpreter ended without a result."""


# -- child side ---------------------------------------------------------------------


class SpeedProbe:
    """Samples the host's speed while a call runs.

    The host this benchmark was written on is shared: the same call runs
    up to 2-3x slower for minutes at a time, and a 20 s run cannot outlast
    that.  While armed, a timer signal every ``PERIOD_S`` of wall time runs
    :meth:`task`, a fixed task of a fraction of a millisecond, and records
    how long it took, so its mean over a call is the host's speed over
    exactly that call.  On that host, a call's wall time followed the
    mean with a correlation of 0.76-0.93 on every workload.  The task
    calls nothing in the program, so no change to the program moves it.
    """

    PERIOD_S = 0.025

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        self.array = (np.arange(1 << 18) % 7).astype(np.uint8)
        self.times: List[float] = []

    def task(self) -> None:
        """Four passes over a 256 KiB page-class-like array.  Of the tasks
        tried, its time tracked all four workloads best: one on a 4 KiB
        array slowed twice as much as the NumPy-heavy workloads did, one
        on 2 MiB a quarter to a half as much as the interpreter-heavy
        ones."""
        np, array = self.np, self.array
        for i in range(4):
            np.count_nonzero(array == i)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.task()
        self.times.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self.times = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.times:  # a call shorter than one period
            self._sample(None, None)


def timed(fn, probe: Optional[SpeedProbe] = None) -> tuple:
    """(wall seconds, result) of one call of ``fn``, sampled by ``probe``."""
    # Garbage left by the previous call is not this call's cost.
    gc.collect()
    with probe or contextlib.nullcontext():
        t0 = time.perf_counter()
        result = fn()
        return time.perf_counter() - t0, result


def repeat(run, seconds: float) -> tuple:
    """Call ``run`` until ``seconds`` are used up (at least once), never
    starting a call the median so far says would end past them.

    Returns (wall time of each call, mean probe time during each call,
    outcome of each call).
    """
    walls: List[float] = []
    probes: List[float] = []
    outcomes: list = []
    probe = SpeedProbe()
    deadline = time.monotonic() + seconds
    while not walls or time.monotonic() + statistics.median(walls) < deadline:
        wall, outcome = timed(run, probe)
        walls.append(wall)
        probes.append(statistics.fmean(probe.times))
        outcomes.append(outcome)
    return walls, probes, outcomes


def child(args: argparse.Namespace) -> dict:
    """Measure one workload in this process; the result goes to the parent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise ChildFailed(f"repro imported from {repro.__file__}, not from {src}")
    run = scenarios.WORKLOADS[args.child](args.seed)
    # CLOCK_MONOTONIC is one clock for all processes on Linux.
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        return {"setup_s": setup_s}
    # Warm-up: the first call also pays lazy imports and first-use caches.
    # Its peak is what one call costs a fresh interpreter; later repeats
    # would add the allocator's leftovers from the calls before them.
    outcomes = [run()]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    walls, probes, repeated = repeat(run, args.seconds)
    result = {
        "setup_s": setup_s,
        "walls": walls,
        "probes": probes,
        "peak_rss_mb": peak_rss_mb,
        "outcomes": outcomes + repeated,
    }
    if args.trace:
        rec = layers.SpanRecorder()
        layers.install(rec)
        try:
            traced_wall, traced = timed(run)
        finally:
            layers.uninstall(rec)
        result["traced"] = {
            "wall_s": traced_wall,
            "outcome": traced,
            "covered_s": rec.covered_s(),
            "self_s": rec.self_times(),
            "counters": rec.counters(),
        }
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            rec.write(args.spans)
    return result


# -- parent side --------------------------------------------------------------------


def spawn(workload: str, seed: int, seconds: float = 0.0, trace: bool = False,
          setup_only: bool = False, spans: Optional[Path] = None) -> dict:
    """Run one child interpreter and return its result."""
    # Bytecode is cached as for an installed package, so set-up time is
    # what a user pays on every run, not a one-off compile.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONHASHSEED="0", **dict.fromkeys(THREAD_VARS, "1"))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload}: child ran past {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload}: child exited with status {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values: List[float]) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def summary(values: List[float], unit: str) -> dict:
    q1, median, q3 = quartiles(values)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def wall_s(child: dict) -> float:
    """Median wall seconds of a measuring child's calls."""
    return statistics.median(child["walls"])


def wall_ref(child: dict) -> float:
    """Median over a measuring child's calls of each call's wall time over
    the mean probe time during it."""
    return statistics.median(w / p for w, p in zip(child["walls"], child["probes"]))


def end_to_end(children: List[dict], setups: List[float], outcome: dict) -> Dict[str, dict]:
    """Summaries of every end-to-end metric over measuring ``children``."""
    values = {
        "wall_ref": [wall_ref(c) for c in children],
        "setup_s": setups,
        "peak_rss_mb": [c["peak_rss_mb"] for c in children],
        "migrations_completed": [outcome["completed"]],
        "sim_elapsed_s": [outcome["sim_elapsed_s"]],
    }
    return {name: summary(values[name], unit) for name, unit in E2E_UNITS.items()}


def per_layer(traced: dict, untraced_wall: float) -> Dict[str, dict]:
    """Summaries of every per-layer metric of one traced call."""
    wall = traced["wall_s"]
    values = {
        "trace.wall_s": wall,
        "trace.overhead": wall / untraced_wall,
        "trace.covered_pct": 100.0 * traced["covered_s"] / wall,
        **{f"{layer}.self_pct": 100.0 * traced["self_s"][layer] / wall
           for layer in layers.LAYERS},
        **traced["counters"],
    }
    return {name: summary([values[name]], unit) for name, unit in LAYER_UNITS.items()}


def verify(workload: str, seed: int, outcomes: List[dict]) -> List[str]:
    """Failed checks over every outcome of one workload and seed."""
    first = outcomes[0]
    failures = scenarios.check(workload, seed, first)
    for i, outcome in enumerate(outcomes[1:], 1):
        if outcome != first:
            failures.append(f"call {i} outcome differs from call 0")
    return [f"{workload} seed {seed}: {f}" for f in failures]


def outcomes_of(result: dict) -> List[dict]:
    """Every outcome a measuring child returned, the traced call's last."""
    traced = [result["traced"]["outcome"]] if "traced" in result else []
    return result["outcomes"] + traced


def attempted_failed(outcomes: List[dict]) -> tuple:
    """(attempted, failed) VM migrations over ``outcomes``."""
    attempted = sum(o["requested"] for o in outcomes)
    failed = sum(o[k] for o in outcomes for k in ("rejected", "failed", "lost_vms"))
    return attempted, failed


def host_seconds(children: List[dict]) -> Dict[str, dict]:
    """Summaries of the raw times behind ``wall_ref``, one value per call."""
    return {
        "call wall_s": summary([w for c in children for w in c["walls"]], "s"),
        "probe ms": summary([1e3 * p for c in children for p in c["probes"]], "ms"),
    }


def print_table(title: str, metrics: Dict[str, dict]) -> None:
    print(title)
    print(f"  {'metric':<44} {'unit':<6} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['unit']:<6} {m['median']:>14.6g} {m['q1']:>14.6g} "
              f"{m['q3']:>14.6g} {m['n']:>3}")


def out_dir(seed: Optional[int]) -> Path:
    """Where a run's spans and results go: one directory per seed."""
    return BENCH / "out" / ("default-seeds" if seed is None else f"seed-{seed}")


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of ``workload`` (the single-workload form): set-up children,
    then one child timing repeats for ``seconds`` and, with ``trace``,
    one traced call after them."""
    setups = [spawn(workload, seed, setup_only=True)["setup_s"]
              for _ in range(SETUP_CHILDREN)]
    r = spawn(workload, seed, seconds, trace=trace,
              spans=out_dir(seed) / f"{workload}.spans.jsonl" if trace else None)
    setups.append(r["setup_s"])
    outcomes = outcomes_of(r)
    if trace:
        metrics = per_layer(r["traced"], wall_s(r))
    else:
        metrics = end_to_end([r], setups, outcomes[0])
    attempted, failed = attempted_failed(outcomes)
    return {"metrics": metrics, "host": host_seconds([r]),
            "failures": verify(workload, seed, outcomes),
            "attempted": attempted, "failed": failed}


def run_all(seed: Optional[int], samples: int, seconds: float) -> dict:
    """Every workload round-robin, alternating the order between samples,
    then one traced call per workload.  A sample is one measuring child."""
    names = list(scenarios.WORKLOADS)
    seeds = {w: scenarios.DEFAULT_SEEDS[w] if seed is None else seed for w in names}
    results: Dict[str, List[dict]] = {w: [] for w in names}
    for i in range(samples):
        for w in names if i % 2 == 0 else names[::-1]:
            results[w].append(spawn(w, seeds[w], seconds))
    report = {"seed": seed, "samples": samples, "seconds": seconds, "workloads": {}}
    failures: List[str] = []
    for w in names:
        traced = spawn(w, seeds[w], trace=True, spans=out_dir(seed) / f"{w}.spans.jsonl")
        rs = results[w]
        outcomes = [o for r in rs + [traced] for o in outcomes_of(r)]
        report["workloads"][w] = {
            "seed": seeds[w],
            "metrics": end_to_end(rs, [r["setup_s"] for r in rs], outcomes[0]),
            "host": host_seconds(rs),
            "outcome": outcomes[0],
            "layers": per_layer(traced["traced"], statistics.median(map(wall_s, rs))),
        }
        failures += verify(w, seeds[w], outcomes)
    report["failures"] = failures
    return report


def print_report(report: dict) -> None:
    for w, r in report["workloads"].items():
        print_table(f"\n{w} (seed {r['seed']}) — end to end", {**r["metrics"], **r["host"]})
        print(f"  outcome: {json.dumps(r['outcome'])}")
        print(f"{w} — traced call, per layer")
        print(f"  {'layer':<26} {'self [s]':>10} {'share':>8}")
        lm = r["layers"]
        wall = lm["trace.wall_s"]["median"]
        for layer in layers.LAYERS:
            share = lm[f"{layer}.self_pct"]["median"]
            print(f"  {layer:<26} {share * wall / 100:>10.3f} {share:>7.1f}%")
        print(f"  traced wall {wall:.3f} s = {lm['trace.overhead']['median']:.2f}x untraced; "
              f"spans cover {lm['trace.covered_pct']['median']:.1f}% of it")
        for name in layers.COUNTERS + ("network.flows.solver_p99_us",
                                       "vmm.migration.resend_ratio"):
            print(f"  {name:<44} {lm[name]['median']:>14.6g} {lm[name]['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(scenarios.WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float,
                        help=f"seconds of timed repeats per run (default {RUN_SECONDS:g}) "
                             f"or per sample of the all-workload form (default {SAMPLE_SECONDS:g})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--samples", type=int, default=5)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--child", choices=list(scenarios.WORKLOADS), help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    parser.add_argument("--spawned", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        print(json.dumps(child(args)))
        return 0
    # Terminating the benchmark also ends its child: subprocess.run kills
    # and reaps the child when the wait for it raises.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if args.workload and args.seed is None:
        args.seed = scenarios.DEFAULT_SEEDS[args.workload]
    if args.seconds is None:
        args.seconds = RUN_SECONDS if args.workload else SAMPLE_SECONDS
    try:
        if args.workload:
            result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            result = run_all(args.seed, args.samples, args.seconds)
    except ChildFailed as err:
        print(f"benchmark child failed: {err}", file=sys.stderr)
        return 2
    for failure in result["failures"]:
        print(f"FAILED check: {failure}", file=sys.stderr)
    if args.workload:
        print_table(f"{args.workload} (seed {args.seed})",
                    {**result["metrics"], **({} if args.trace else result["host"])})
        print(json.dumps({
            "correct": not result["failures"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": m["median"], "unit": m["unit"]}
                        for name, m in result["metrics"].items()},
        }))
    else:
        print_report(result)
        out = args.out or out_dir(args.seed) / "results.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=1) + "\n")
        print(f"\nwrote {out}")
    return 1 if result["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
