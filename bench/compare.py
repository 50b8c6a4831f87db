"""Compare two results files written by ``bench/run.py``.

::

    python3 bench/compare.py A.json B.json

For every workload and end-to-end metric, prints both medians with their
quartiles and a verdict, using the bounds in ``BENCHMARK.json``:

* host-time metrics: ``regressed`` when B's median is worse than A's by
  more than the bound, ``improved`` when better by more than the bound,
  ``unchanged`` otherwise, and ``unresolved`` when either side's spread
  (quartile distance over median) is wider than the bound, unless every
  B sample reads better than every A sample;
* deterministic values (unit ``count`` or ``sim_s``, and every value of
  the simulated outcome): ``identical`` or ``behaviour changed``.

Per-layer rows follow, with any changed work counter marked.  Exit
status 1 when anything regressed or changed behaviour, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DETERMINISTIC_UNITS = ("count", "sim_s")


def spread(m: dict) -> float:
    return (m["q3"] - m["q1"]) / m["median"] if m["median"] else 0.0


def verdict(a: dict, b: dict, bound: float, better: str) -> str:
    """Verdict on metric summaries ``a`` (before) and ``b`` (after)."""
    if a["unit"] in DETERMINISTIC_UNITS:
        return "identical" if set(a["values"]) == set(b["values"]) else "behaviour changed"
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b["median"] - a["median"]) / a["median"]
    if max(spread(a), spread(b)) > bound:
        beats = (max(b["values"]) < min(a["values"]) if better == "lower"
                 else min(b["values"]) > max(a["values"]))
        return "improved" if beats else "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def fmt(m: dict) -> str:
    return f"{m['median']:.6g} [{m['q1']:.6g}, {m['q3']:.6g}] n={m['n']}"


def compare(a: dict, b: dict, spec: dict) -> int:
    """Print the comparison; returns the number of bad verdicts."""
    declared = {m["name"]: m for m in spec["end_to_end"]}
    bad = 0
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            print(f"{workload}: missing from B")
            bad += 1
            continue
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        print(f"\n{workload}")
        for name, ma in wa["metrics"].items():
            mb = wb["metrics"][name]
            spec_m = declared[name]
            v = verdict(ma, mb, spec_m["bound"], spec_m["better"])
            bad += v in ("regressed", "behaviour changed")
            print(f"  {name:<22} {ma['unit']:<6} A {fmt(ma):<42} B {fmt(mb):<42} {v}")
        for key, va in wa["outcome"].items():
            if wb["outcome"].get(key) != va:
                bad += 1
                print(f"  outcome {key}: A {va!r}  B {wb['outcome'].get(key)!r}  "
                      "behaviour changed")
        print("  per layer (traced run)")
        for name, la in wa["layers"].items():
            lb = wb["layers"][name]
            changed = la["unit"] == "count" and set(la["values"]) != set(lb["values"])
            print(f"    {name:<44} A {la['median']:>14.6g}  B {lb['median']:>14.6g}"
                  f"{'  changed' if changed else ''}")
    return bad


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return 1 if compare(a, b, spec) else 0


if __name__ == "__main__":
    sys.exit(main())
