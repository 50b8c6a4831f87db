"""ASCII Gantt rendering of phase timelines.

Turns a :class:`~repro.core.ninja.NinjaResult` (or any set of labelled
spans) into an aligned text chart, e.g.::

    0.0s                                                          121.8s
    sequence  |c|dddd|mmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmm|a|LLLLLLLLLL|
    vm1       .....[migration.......................].................
    vm2       .....[migration.......................].................

Useful for eyeballing where the overhead goes without leaving the
terminal (the paper's Figure 4, reconstructed from a real run).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.ninja import NinjaResult

#: (phase name, glyph) — order also defines the legend.
PHASE_GLYPHS = (
    ("coordination", "c"),
    ("detach", "d"),
    ("migration", "m"),
    ("attach", "a"),
    ("confirm", "f"),
    ("linkup", "L"),
    ("snapshot", "s"),
)

Span = Tuple[str, float, float]  # (name, start, end)


def render_spans(
    rows: Sequence[Tuple[str, Sequence[Span]]],
    width: int = 72,
    t0: float = None,  # type: ignore[assignment]
    t1: float = None,  # type: ignore[assignment]
) -> str:
    """Render labelled span rows into one aligned chart."""
    all_spans = [span for _, spans in rows for span in spans]
    if not all_spans:
        return "(no spans)"
    lo = min(s for _, s, _ in all_spans) if t0 is None else t0
    hi = max(e for _, _, e in all_spans) if t1 is None else t1
    if hi <= lo:
        hi = lo + 1.0
    scale = width / (hi - lo)
    glyphs = dict(PHASE_GLYPHS)
    label_width = max(len(label) for label, _ in rows)

    lines = [f"{'':<{label_width}}  {lo:.1f}s{'':<{max(width - 12, 0)}}{hi:.1f}s"]
    for label, spans in rows:
        canvas = ["."] * width
        for name, start, end in spans:
            glyph = glyphs.get(name, name[:1] or "#")
            a = int((start - lo) * scale)
            b = max(int((end - lo) * scale), a + 1)
            for i in range(max(a, 0), min(b, width)):
                canvas[i] = glyph
        lines.append(f"{label:<{label_width}}  {''.join(canvas)}")
    used = {name for _, spans in rows for name, _, _ in spans}
    legend = "  ".join(f"{g}={n}" for n, g in PHASE_GLYPHS if n in used)
    if legend:
        lines.append(f"{'':<{label_width}}  [{legend}]")
    return "\n".join(lines)


def ninja_gantt(result: NinjaResult, width: int = 72) -> str:
    """Chart one Ninja migration: the sequence row plus per-VM rows."""
    sequence_spans: List[Span] = [
        (span.name, span.start, span.end)
        for span in result.timeline.spans
        if span.end is not None and span.end > span.start
    ]
    rows: List[Tuple[str, Sequence[Span]]] = [("sequence", sequence_spans)]
    for vm_name, stats in sorted(result.migration_stats.items()):
        vm_spans = [
            ("migration", r.start_time, r.start_time + r.duration_s)
            for r in stats.rounds
            if r.duration_s > 0
        ]
        rows.append((vm_name, vm_spans))
    return render_spans(rows, width=width, t0=result.started_at, t1=result.finished_at)
