"""Result analysis and paper-experiment harnesses.

* :mod:`repro.analysis.report` — text rendering of tables/series in the
  paper's format;
* :mod:`repro.analysis.experiments` — self-contained functions that run
  each of the paper's experiments (Table II, Figures 6–8) end-to-end and
  return structured results.  Benchmarks and examples are thin wrappers
  around these.
"""

from repro.analysis.experiments import (
    Fig6Result,
    Fig7Result,
    Fig8Result,
    Table2Result,
    run_fig6_memtest,
    run_fig7_npb,
    run_fig8_fallback_recovery,
    run_table2_all,
    run_table2_scenario,
)
from repro.analysis.gantt import ninja_gantt, render_spans
from repro.analysis.report import render_table

__all__ = [
    "ninja_gantt",
    "render_spans",
    "Fig6Result",
    "Fig7Result",
    "Fig8Result",
    "Table2Result",
    "render_table",
    "run_fig6_memtest",
    "run_fig7_npb",
    "run_fig8_fallback_recovery",
    "run_table2_all",
    "run_table2_scenario",
]
