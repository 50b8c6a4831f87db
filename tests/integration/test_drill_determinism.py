"""Estate drills are deterministic per seed also run after run in one
process (ids, caches, module state): two runs of every drill of
``tests/golden.py`` both give its ``tests/golden.json`` entry."""

from __future__ import annotations

import json

import pytest

from tests import golden

GOLDEN = json.loads(golden.GOLDEN.read_text())

DRILLS = sorted(n for n in golden.SCENARIOS if not n.startswith(("fig7-", "scale-")))


@pytest.mark.parametrize("drill", DRILLS)
def test_same_seed_twice_in_one_process_gives_same_result_and_trace(drill):
    runs = [golden.record(drill) for _ in range(2)]
    assert runs == [GOLDEN[drill], GOLDEN[drill]]
