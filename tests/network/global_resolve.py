"""The pre-incremental flow kernel, kept as a differential test oracle.

:class:`GlobalResolveFlowNetwork` re-solves every active flow on every
event and finds the next completion by an O(F) scan, the way the flow
engine worked before it became contention-scoped.  It shares the fluid
model (:func:`~repro.network.flows.compute_maxmin_flow_rates`) with
:class:`~repro.network.flows.FlowNetwork` but none of its scoping, lazy
crediting or completion heap, so two tests run it side by side with the
real kernel:

* ``tests/property/test_flow_solver_equivalence.py`` feeds both the same
  random operation sequence and compares finish times and bytes;
* ``tests/orchestrator/test_continuous.py`` swaps it into a scale
  campaign and compares fleet outcomes and solver work.
"""

from __future__ import annotations

import time as _time
from typing import List

from repro.errors import SimulationError
from repro.network.flows import (
    _EPS,
    _MIN_DT,
    Flow,
    FlowNetwork,
    compute_maxmin_flow_rates,
)


class GlobalResolveFlowNetwork(FlowNetwork):
    """``FlowNetwork`` with the global re-solve kernel."""

    def __init__(self, env, name: str = "flows") -> None:
        super().__init__(env, name)
        self._last_update = env.now

    def _resolve_after_change(self, seeds: List[Flow], scope_all: bool = False) -> None:
        self._reschedule_legacy()

    def _settle(self, now: float) -> None:
        self._advance_progress_legacy()

    def _schedule_wakeup(self) -> None:
        self._reschedule_legacy()

    def _advance_progress_legacy(self) -> None:
        """Pre-incremental kernel: credit every flow, complete the due ones."""
        now = self.env.now
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed <= 0 or not self._flows:
            return
        finished = []
        for flow in self._flows:
            flow.remaining -= flow.rate_Bps * elapsed
            flow._updated_at = now
            if flow.remaining <= _EPS * max(1.0, flow.nbytes) or (
                flow.rate_Bps > 0 and flow.remaining <= flow.rate_Bps * _MIN_DT
            ):
                flow.remaining = 0.0
                finished.append(flow)
        for flow in finished:
            self._remove(flow)
            flow.finished_at = now
            self.total_completed += 1
            flow.done.succeed(flow)

    def _reschedule_legacy(self) -> None:
        """Pre-incremental kernel: global re-solve + single-min wakeup."""
        self._wakeup = None
        if not self._flows:
            return
        flows = list(self._flows)
        stats = self.solver_stats
        t0 = _time.perf_counter() if stats is not None else 0.0
        compute_maxmin_flow_rates(flows)
        if stats is not None:
            stats.calls += 1
            stats.flows_touched += len(flows)
            stats.samples_s.append(_time.perf_counter() - t0)
        self._nprogress = sum(1 for f in flows if f.rate_Bps > _EPS)
        for flow in flows:
            flow._progressing = flow.rate_Bps > _EPS
        next_dt = min(
            (f.remaining / f.rate_Bps for f in flows if f.rate_Bps > _EPS),
            default=None,
        )
        if next_dt is None:
            raise SimulationError(
                f"FlowNetwork {self.name!r}: flows present but none can progress"
            )
        wakeup = self.env.timeout(max(next_dt, _MIN_DT))
        self._wakeup = wakeup
        wakeup.callbacks.append(self._on_wakeup)
