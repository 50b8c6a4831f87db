"""Property-based checks of the checkpoint journal fold (hypothesis).

``MigrationJournal.last_committed_checkpoint`` is the restore path's
only source of truth.  For arbitrary interleavings of intent/commit
records and an arbitrary failure time, the selected generation must be
committed, committed before the failure, and never older than any other
generation that was restorable at that instant — i.e. a restore never
resurrects state older than the last committed checkpoint generation.
The invariant checker's ``stale-restore`` rule must agree with the fold.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.cluster import Cluster
from repro.invariants import check
from repro.recovery.journal import JournalRecord, MigrationJournal

# One generation: (coordination delay before the consistency point,
# write duration, whether the commit record ever landed).  Uncommitted
# generations model a writer that died mid-checkpoint.
_GEN = st.tuples(
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    st.floats(min_value=0.1, max_value=30.0, allow_nan=False),
    st.booleans(),
)


def _journal_of(records):
    """A journal read back from ``records`` (times and seqs as given)."""
    return MigrationJournal.loads(
        "\n".join(json.dumps(r.to_dict()) for r in records)
    )


def _build_journal(gens):
    """Sequential generations for one job, like the service produces."""
    records = []
    t = 0.0
    seq = 0
    rows = []
    for gen, (coord_s, write_s, committed) in enumerate(gens, start=1):
        t += 1.0  # inter-tick gap
        records.append(JournalRecord(
            seq=seq, time=t, kind="checkpoint-intent",
            payload={"job": "j0", "generation": gen},
        ))
        seq += 1
        consistency_at = t + coord_s
        commit_at = consistency_at + write_s
        if committed:
            records.append(JournalRecord(
                seq=seq, time=commit_at, kind="checkpoint-commit",
                payload={
                    "job": "j0",
                    "generation": gen,
                    "consistency_at": consistency_at,
                    "images": [f"j01.memsnap@g{gen}"],
                },
            ))
            seq += 1
        rows.append((gen, consistency_at, commit_at, committed))
        t = commit_at
    return _journal_of(records), rows


def _restore_rules(journal, at, generation):
    """Checker rules a restore of ``generation`` at ``at`` breaks."""
    payload = {"incident": 1, "job": "j0", "generation": generation}
    restored = _journal_of([
        *journal.records,
        JournalRecord(seq=-1, time=at, kind="restore-intent", payload=payload),
        JournalRecord(seq=-1, time=at, kind="restore-commit", payload=payload),
    ])
    return [v.rule for v in check(Cluster(), restored)]


@given(
    gens=st.lists(_GEN, min_size=1, max_size=12),
    failure_frac=st.floats(min_value=0.0, max_value=1.2, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_restore_never_resurrects_older_than_last_commit(gens, failure_frac):
    journal, rows = _build_journal(gens)
    horizon = rows[-1][2] + 1.0
    failure_at = failure_frac * horizon

    selected = journal.last_committed_checkpoint("j0", before=failure_at)
    restorable = [
        (gen, consistency_at, commit_at)
        for gen, consistency_at, commit_at, committed in rows
        if committed and commit_at <= failure_at
    ]

    if not restorable:
        assert selected is None
        return

    assert selected is not None
    gen = selected["generation"]
    # The selected generation really committed, before the failure.
    committed_rows = {g: (c, m) for g, c, m, ok in rows if ok}
    assert gen in committed_rows
    assert committed_rows[gen][1] <= failure_at
    # Never an intent-only generation, and never older state than any
    # other restorable generation.
    best_consistency = max(c for _, c, _ in restorable)
    assert float(selected["consistency_at"]) == best_consistency
    # RPO from this fold is the failure-to-consistency distance and is
    # never negative.
    assert failure_at - float(selected["consistency_at"]) >= 0.0
    # The checker accepts restoring the selected generation and flags
    # restoring any older one that was also restorable.
    assert _restore_rules(journal, failure_at, gen) == []
    oldest = min(g for g, _, _ in restorable)
    assert _restore_rules(journal, failure_at, oldest) == (
        ["stale-restore"] if oldest < gen else []
    )


@given(gens=st.lists(_GEN, min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_uncommitted_generations_are_never_selected(gens):
    journal, rows = _build_journal(gens)
    horizon = rows[-1][2] + 1.0
    selected = journal.last_committed_checkpoint("j0", before=horizon)
    uncommitted = {gen for gen, _, _, committed in rows if not committed}
    if selected is not None:
        assert selected["generation"] not in uncommitted
