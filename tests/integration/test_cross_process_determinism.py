"""Same seed, same output — across interpreters with different hash seeds.

Directed links are interned and hash by identity, so a ``frozenset`` of
them (the fleet planner's link footprints) iterates in an order set by
their memory addresses, which depend on everything the process
allocated before.  A child interpreter with another ``PYTHONHASHSEED``
builds a throwaway link (with its two directed views) before each
scenario of ``tests/golden.py``, shifting the addresses, hence the set
positions, of every later directed link, and must reproduce every
``tests/golden.json`` entry: no output depends on that order or on
string hashing.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

from tests import golden

REPO = pathlib.Path(__file__).resolve().parents[2]

_CHILD = """
import json
from repro.network.links import Link
from tests.golden import SCENARIOS, record

pad, runs = [], {}
for name in sorted(SCENARIOS):
    pad.append(Link("pad", 1.0))
    runs[name] = record(name)
print(json.dumps(runs))
"""


def test_scale_and_fleet_traces_are_identical_across_hash_seeds():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD],
        cwd=REPO, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = child.communicate(timeout=100)
    finally:
        if child.poll() is None:
            child.kill()
            child.communicate()
    assert child.returncode == 0, err
    runs = json.loads(out)
    expected = json.loads(golden.GOLDEN.read_text())
    assert sorted(runs) == sorted(expected)
    moved = [
        f"{name}: " + "; ".join(golden.changes(expected[name], entry))
        for name, entry in sorted(runs.items())
        if entry != expected[name]
    ]
    assert moved == []
