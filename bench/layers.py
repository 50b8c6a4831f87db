"""Per-layer spans for the benchmark's traced run.

:func:`install` wraps the entry point of each simulator layer at class
level, inside the benchmark child process, so the program itself is not
changed.  A call into a wrapped method opens a span named after the
layer and closes it on return; a wrapped *generator* method gets one span
per resume instead (creating a generator runs no code, and a simulation
process spends most of its life suspended between resumes).  Each span
records its name, start, end and the id of the span that was open when it
started, so spans nest exactly as the calls did.

A layer's self time is the time its spans cover minus the time covered by
spans nested inside them.  ``sim`` wraps ``Environment.run``, so its self
time is the event loop plus every line of model code that no other layer
claims.

The same wrappers also count work at each boundary (events processed,
flows started, guest pages scanned, journal records, ...); the counts are
deterministic for a given seed, the times are not.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional

#: Span names, one per timed layer, in report order.
LAYERS = (
    "sim",
    "sim.fairshare",
    "sim.trace",
    "network.flows",
    "network.fattree",
    "vmm.guest_memory",
    "vmm.migration",
    "core.ninja",
    "mpi",
    "orchestrator.planner",
    "orchestrator.continuous",
    "incident",
    "recovery.journal",
)

#: Work counters, in report order.
COUNTERS = (
    "sim.events",
    "sim.processes",
    "sim.fairshare.submits",
    "sim.trace.records",
    "network.flows.starts",
    "network.flows.solver_calls",
    "network.flows.flows_touched",
    "network.fattree.paths",
    "vmm.guest_memory.round_accounting_calls",
    "vmm.guest_memory.class_counts_calls",
    "vmm.guest_memory.pages_scanned",
    "vmm.migration.migrations",
    "vmm.migration.rounds",
    "core.ninja.executions",
    "core.ninja.aborts",
    "core.ninja.retries",
    "mpi.messages",
    "orchestrator.planner.refreshes",
    "orchestrator.continuous.requests",
    "orchestrator.deferrals",
    "incident.samples",
    "incident.detector_evals",
    "incident.alerts",
    "recovery.journal.records",
    "recovery.checkpoints.commits",
)


class SpanRecorder:
    """In-memory span log plus work counters for one traced run.

    Spans live in flat typed arrays (one slot per span) so a run with a
    million resumes costs tens of megabytes, not hundreds.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.t0 = clock()
        self.names: List[str] = list(LAYERS)
        self._parent = array("q")
        self._name = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        #: The flow networks' own solver timers, one per FlowNetwork.
        self.solver_stats: list = []
        #: (class, method, original function) of every installed wrapper.
        self.wrapped: list = []

    def __len__(self) -> int:
        return len(self._start)

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name_id: int) -> int:
        sid = len(self._start)
        stack = self._stack
        self._parent.append(stack[-1] if stack else -1)
        self._name.append(name_id)
        self._end.append(0.0)
        stack.append(sid)
        self._start.append(self.clock())
        return sid

    def close(self, sid: int) -> None:
        self._end[sid] = self.clock()
        self._stack.pop()

    def resumes(self, gen, name_id: int, on_return=None):
        """Drive ``gen``, timing each resume as one span.

        Values, exceptions and the return value pass through unchanged,
        so ``yield from`` and the simulation kernel see the same protocol
        as with the bare generator.
        """
        value, error = None, None
        while True:
            sid = self.open(name_id)
            try:
                target = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                self.close(sid)
                if on_return is not None:
                    on_return(stop.value)
                return stop.value
            except BaseException:
                self.close(sid)
                raise
            self.close(sid)
            try:
                value, error = (yield target), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as err:
                value, error = None, err

    # -- results -------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Seconds each span name spent outside its nested spans."""
        out = dict.fromkeys(self.names, 0.0)
        names, parents = self._name, self._parent
        for i in range(len(self._start)):
            duration = self._end[i] - self._start[i]
            out[self.names[names[i]]] += duration
            parent = parents[i]
            if parent >= 0:
                out[self.names[names[parent]]] -= duration
        return out

    def covered_s(self) -> float:
        """Seconds covered by top-level spans (the sum of all self times)."""
        return sum(
            self._end[i] - self._start[i]
            for i in range(len(self._start))
            if self._parent[i] < 0
        )

    def write(self, path) -> int:
        """Write one JSON object per span, times relative to the run start."""
        t0 = self.t0
        with open(path, "w") as fh:
            for i in range(len(self._start)):
                fh.write(json.dumps({
                    "id": i,
                    "parent": self._parent[i],
                    "name": self.names[self._name[i]],
                    "start": self._start[i] - t0,
                    "end": self._end[i] - t0,
                }) + "\n")
        return len(self._start)

    def counters(self) -> Dict[str, float]:
        """Work counters plus the flow solver's and migration ratios."""
        out: Dict[str, float] = {name: self.counts.get(name, 0) for name in COUNTERS}
        samples = sorted(s for stats in self.solver_stats for s in stats.samples_s)
        out["network.flows.solver_calls"] = sum(s.calls for s in self.solver_stats)
        out["network.flows.flows_touched"] = sum(s.flows_touched for s in self.solver_stats)
        out["network.flows.solver_p99_us"] = (
            samples[min(int(len(samples) * 0.99), len(samples) - 1)] * 1e6 if samples else 0.0
        )
        ram = self.counts["vmm.migration.ram_bytes"]
        out["vmm.migration.resend_ratio"] = (
            self.counts["vmm.migration.wire_bytes"] / ram if ram else 0.0
        )
        return out


# -- wrapping ----------------------------------------------------------------------


def _wrap(rec: SpanRecorder, cls, method: str, span: Optional[str], counter: Optional[str],
          before=None, after=None) -> None:
    """Replace ``cls.method`` with a span-recording, counting wrapper.

    ``before(obj, args, kwargs)`` runs ahead of the call and its result is
    handed to ``after(obj, token, result)`` once the call (or, for a
    generator, its last resume) returned.
    """
    fn = cls.__dict__[method]
    counts = rec.counts
    name_id = rec.name_id(span) if span else -1

    if inspect.isgeneratorfunction(fn):
        def wrapper(obj, *args, **kwargs):
            if counter:
                counts[counter] += 1
            gen = fn(obj, *args, **kwargs)
            on_return = None if after is None else (lambda value: after(obj, None, value))
            proxy = rec.resumes(gen, name_id, on_return)
            # Process names default to the generator's name.
            proxy.__name__, proxy.__qualname__ = gen.__name__, gen.__qualname__
            return proxy
    else:
        def wrapper(obj, *args, **kwargs):
            if counter:
                counts[counter] += 1
            token = before(obj, args, kwargs) if before else None
            if span is None:
                result = fn(obj, *args, **kwargs)
            else:
                sid = rec.open(name_id)
                try:
                    result = fn(obj, *args, **kwargs)
                finally:
                    rec.close(sid)
            if after is not None:
                after(obj, token, result)
            return result

    setattr(cls, method, functools.update_wrapper(wrapper, fn))
    rec.wrapped.append((cls, method, fn))


def _cls(path: str):
    module, _, name = path.rpartition(".")
    return getattr(importlib.import_module(module), name)


def uninstall(rec: SpanRecorder) -> None:
    """Put back every method :func:`install` wrapped for ``rec``."""
    while rec.wrapped:
        cls, method, fn = rec.wrapped.pop()
        setattr(cls, method, fn)


def install(rec: SpanRecorder) -> None:
    """Wrap every layer entry point of the ``repro`` package for ``rec``."""
    counts = rec.counts

    # sim: the run loop is the root span; events come from the kernel's own counter.
    env = _cls("repro.sim.core.Environment")
    _wrap(rec, env, "run", "sim", None,
          before=lambda obj, a, k: obj.events_processed,
          after=lambda obj, e0, _: counts.update({"sim.events": obj.events_processed - e0}))
    _wrap(rec, env, "process", None, "sim.processes")
    _wrap(rec, _cls("repro.sim.fairshare.FairShare"), "submit", "sim.fairshare",
          "sim.fairshare.submits")
    tracer = _cls("repro.sim.trace.Tracer")
    for method in ("emit", "emit_batch"):
        _wrap(rec, tracer, method, "sim.trace", None,
              before=lambda obj, a, k: len(obj.records),
              after=lambda obj, n0, _: counts.update({"sim.trace.records": len(obj.records) - n0}))

    flows = _cls("repro.network.flows.FlowNetwork")
    _wrap(rec, flows, "__init__", None, None,
          after=lambda obj, t, r: rec.solver_stats.append(obj.enable_solver_stats()))
    _wrap(rec, flows, "start", "network.flows", "network.flows.starts")
    for method in ("cancel", "set_cap", "recompute"):
        _wrap(rec, flows, method, "network.flows", None)
    _wrap(rec, _cls("repro.network.fattree.FatTree"), "path", "network.fattree",
          "network.fattree.paths")

    memory = _cls("repro.vmm.guest_memory.GuestMemory")
    for method in ("round_accounting", "class_counts"):
        _wrap(rec, memory, method, "vmm.guest_memory", f"vmm.guest_memory.{method}_calls",
              before=lambda obj, a, k: counts.update({"vmm.guest_memory.pages_scanned": obj.npages}))

    def migration_done(job, _, stats):
        counts["vmm.migration.rounds"] += len(stats.rounds)
        counts["vmm.migration.wire_bytes"] += stats.wire_bytes
        counts["vmm.migration.ram_bytes"] += job.qemu.vm.memory.size_bytes

    _wrap(rec, _cls("repro.vmm.migration.MigrationJob"), "_run", "vmm.migration",
          "vmm.migration.migrations", after=migration_done)

    def ninja_done(_, __, result):
        counts["core.ninja.aborts"] += int(result.aborted)
        counts["core.ninja.retries"] += sum(result.retries.values())

    _wrap(rec, _cls("repro.core.ninja.NinjaMigration"), "execute", "core.ninja",
          "core.ninja.executions", after=ninja_done)

    mpi = _cls("repro.mpi.runtime.MpiProcess")
    _wrap(rec, mpi, "send", "mpi", "mpi.messages")
    _wrap(rec, mpi, "isend", "mpi", "mpi.messages")
    _wrap(rec, mpi, "recv", "mpi", None)

    _wrap(rec, _cls("repro.orchestrator.planner.PlannedMigration"), "refresh",
          "orchestrator.planner", "orchestrator.planner.refreshes")
    _wrap(rec, _cls("repro.orchestrator.continuous.ContinuousFleet"), "_handle",
          "orchestrator.continuous", "orchestrator.continuous.requests")
    _wrap(rec, _cls("repro.orchestrator.admission.AdmissionStats"), "defer", None,
          "orchestrator.deferrals")

    _wrap(rec, _cls("repro.incident.telemetry.TelemetryBus"), "publish", "incident",
          "incident.samples")
    _wrap(rec, _cls("repro.incident.detectors.Detector"), "observe", "incident",
          "incident.detector_evals",
          after=lambda obj, t, alert: counts.update({"incident.alerts": int(alert is not None)}))

    def journal_before(obj, args, kwargs):
        if (args[0] if args else kwargs.get("kind")) == "checkpoint-commit":
            counts["recovery.checkpoints.commits"] += 1

    _wrap(rec, _cls("repro.recovery.journal.MigrationJournal"), "append", "recovery.journal",
          "recovery.journal.records", before=journal_before)
