"""Every ``src/`` parameter with a default is set by something other than tests.

A parameter counts as set when a call in ``src/``, ``bench/``,
``benchmarks/`` or ``examples/``, outside the definition's own body,
names the callable by its last name component (a function or method
name, or the class name for ``__init__``) and passes the parameter by
keyword or by position, or through a ``*args`` splat.  Two indirections
are followed:

- a ``**kwargs`` passthrough: keywords given to a preset such as
  ``run_fleet_scenario(**options)`` that the preset does not take itself
  count for the callable it forwards them to;
- a ``**mapping`` call: every identifier-like string literal of the
  function making it counts as a keyword (``repro incident`` builds its
  options dict), and a callee held in a local variable resolves to the
  names assigned to it.

An option nothing sets is a constant in disguise: make it one, and delete
the branches only other values reach.  The backlog that predates this
check is listed in :data:`KEPT`, each with its reason; nothing may join
it, and an entry leaves once its option is set or gone.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "bench", "benchmarks", "examples")

_IDENT = re.compile(r"[A-Za-z_]\w*")
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


class _Def:
    """One ``src/`` callable and its parameters that have defaults."""

    def __init__(self, file, node, owner):
        self.file, self.node = file, node
        self.names = {node.name} | ({owner} if owner and node.name == "__init__" else set())
        self.key = f"{owner}.{node.name}" if owner else node.name
        args = node.args
        positional = args.posonlyargs + args.args
        method = owner is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
        )
        skip = 1 if method else 0  # self / cls is never passed by position
        first_default = len(positional) - len(args.defaults)
        #: param name -> position at a call site (None: keyword only).
        self.defaults = {
            a.arg: i - skip for i, a in enumerate(positional) if i >= first_default
        }
        self.defaults.update(
            (a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
        )
        self.params = {a.arg for a in positional + args.kwonlyargs}

    def inside(self, file, line):
        return file == self.file and self.node.lineno <= line <= self.node.end_lineno


def _callee_names(func, assigned):
    if isinstance(func, ast.Name):
        return {func.id} | assigned.get(func.id, set())
    if isinstance(func, ast.Attribute):
        return {func.attr}
    return set()


def _walk_file(file, tree, defs, calls, forwards):
    """Collect ``tree``'s definitions (src only), calls and passthroughs."""

    def visit(node, owner):
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                visit(child, node.name)
            return
        if isinstance(node, _FUNCS):
            if file.startswith("src/") and (
                not node.name.startswith("__") or node.name == "__init__"
            ):
                d = _Def(file, node, owner)
                if d.defaults:
                    defs.append(d)
            kwarg = node.args.kwarg.arg if node.args.kwarg else None
            assigned = defaultdict(set)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Assign):
                    names = {n.id for n in ast.walk(sub.value) if isinstance(n, ast.Name)}
                    for target in sub.targets:
                        if isinstance(target, ast.Name):
                            assigned[target.id] |= names
            strings = {
                s.value for s in ast.walk(node)
                if isinstance(s, ast.Constant) and isinstance(s.value, str)
                and _IDENT.fullmatch(s.value)
            }
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    splats = [k.value for k in sub.keywords if k.arg is None]
                    if kwarg and any(isinstance(v, ast.Name) and v.id == kwarg for v in splats):
                        forwards[node.name] |= _callee_names(sub.func, assigned)
                    elif splats:
                        calls.append(_call(file, sub, assigned, strings))
            owner = None  # a def nested in a function is no method
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    start = len(calls)
    visit(tree, None)
    splatted = {id(c[-1]) for c in calls[start:]}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in splatted:
            calls.append(_call(file, node, {}, set()))


def _call(file, node, assigned, extra_keywords):
    """``(names, positional count, star, keywords, file, line, node)``."""
    keywords = {k.arg for k in node.keywords if k.arg} | extra_keywords
    star = any(isinstance(a, ast.Starred) for a in node.args)
    npos = sum(1 for a in node.args if not isinstance(a, ast.Starred))
    return (_callee_names(node.func, assigned), npos, star, keywords, file, node.lineno, node)


def _scan():
    """``(file, line, "name(param)")`` of every src option nothing sets."""
    defs, calls, forwards = [], [], defaultdict(set)
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            file = path.relative_to(ROOT).as_posix()
            _walk_file(file, ast.parse(path.read_text()), defs, calls, forwards)
    params = defaultdict(set)
    for d in defs:
        for name in d.names:
            params[name] |= d.params
    # Keywords a passthrough preset does not take itself reach its callee.
    queue, seen = list(calls), set()
    while queue:
        names, _, _, keywords, file, line, node = queue.pop()
        for name in names & forwards.keys():
            passed = frozenset(keywords - params[name])
            if passed and (name, passed, id(node)) not in seen:
                seen.add((name, passed, id(node)))
                forwarded = (forwards[name], 0, False, passed, file, line, node)
                calls.append(forwarded)
                queue.append(forwarded)
    by_name = defaultdict(list)
    for call in calls:
        for name in call[0]:
            by_name[name].append(call)
    unset = []
    for d in defs:
        reaching = [
            c for name in d.names for c in by_name[name] if not d.inside(c[4], c[5])
        ]
        for param, position in d.defaults.items():
            if not any(
                param in keywords
                or (position is not None and (npos > position or star))
                for _, npos, star, keywords, *_ in reaching
            ):
                unset.append((d.file, d.node.lineno, f"{d.key}({param})"))
    return unset


_TESTS = "set only by tests: a constant to be, once each test pins what the value controls"
_NONE = "set by nothing, not even tests: a constant to be"
_FLOW = (
    "a keyword the slotted Flow keeps from its dataclass form "
    "(test_flow_is_slotted_and_keeps_its_keywords)"
)

#: The options no caller outside tests set when this check came in
#: (ROADMAP item 8 turns them into constants), and why each is listed.
KEPT = {
    "CommView.allreduce(algorithm)": _TESTS,
    "CommView.bcast(algorithm)": _TESTS,
    "CommView.bcast(value)": _TESTS,
    "CommView.sendrecv(value)": _TESTS,
    "Environment.timeout(value)": _TESTS,
    "FaultInjector.arm(times)": _TESTS,
    "FleetCheckpointService.__init__(detach_tag)": _TESTS,
    "FleetCheckpointService.__init__(keep_generations)": _TESTS,
    "FleetCheckpointService.rpo_at(t)": (
        "kept for the planned per-job checkpoint deadline and its RPO check"
    ),
    "Flow.__init__(_active)": _FLOW,
    "Flow.__init__(_finish_entry)": _FLOW,
    "Flow.__init__(_progressing)": _FLOW,
    "Flow.__init__(finished_at)": _FLOW,
    "Flow.__init__(rate_Bps)": _FLOW,
    "HeartbeatMonitor.emit_heartbeats(count)": _TESTS,
    "LinkTelemetryProbe.__init__(trace)": _TESTS,
    "MemoryWriter.run(max_passes)": _TESTS,
    "NinjaMigration.__init__(migration_policy)": _TESTS,
    "VirtualMachine.__init__(page_size)": _TESTS,
    "build_agc_cluster(linkup_jitter)": _TESTS,
    "build_estate(tenants)": _TESTS,
    "build_two_site_cluster(wan_latency_s)": _TESTS,
    "Controller.migration(policy)": _NONE,
    "Controller.migration(rdma)": _NONE,
    "Controller.migration(results)": _NONE,
    "Fabric.transfer(weight)": _NONE,
    "FatTree.__init__(latency_s)": _NONE,
    "FleetOrchestrator.submit(consolidate_to)": _NONE,
    "FleetOrchestrator.submit(max_attempts)": _NONE,
    "GuestMemory.populate_resident(offset)": _NONE,
    "MigrationJournal.load(env)": _NONE,
    "MigrationPlan.build(detach_tag)": _NONE,
    "NinjaMigration.execute(request_checkpoint)": _NONE,
    "NinjaMigration.fallback_plan(label)": _NONE,
    "NinjaMigration.self_migration_plan(label)": _NONE,
    "PlacementEngine.pick_packed(kind)": _NONE,
    "PowerAwarePlacer.plan(label)": _NONE,
    "ProactiveCheckpoint.execute(request_checkpoint)": _NONE,
    "QmpServer._cmd_device_add(host)": _NONE,
    "QmpServer._cmd_migrate(policy)": _NONE,
    "QmpServer._cmd_migrate(rdma)": _NONE,
    "attach_ib_warm(tag)": _NONE,
    "build_agc_cluster(calibration)": "a calibration knob; item 5's scenario registry will set it",
    "chaos_from_spec(fabric)": _NONE,
    "provision_vms(vcpus)": _NONE,
    "run_table2_scenario(seed)": _NONE,
}


def test_every_src_option_has_a_setter():
    unset = _scan()
    stray = [u for u in unset if u[2] not in KEPT]
    assert not stray, "a src/ option that only tests set (make it a constant):\n" + (
        "\n".join(f"  {file}:{line} {name}" for file, line, name in stray)
    )
    assert set(KEPT) <= {name for _, _, name in unset}, (
        "KEPT names an option that is gone or now set: "
        f"{sorted(set(KEPT) - {name for _, _, name in unset})}"
    )


if __name__ == "__main__":
    for file, line, name in _scan():
        print(f"{file}:{line} {name}{'  (kept)' if name in KEPT else ''}")
