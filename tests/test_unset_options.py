"""Every ``src/`` parameter with a default is set by something other than tests.

A parameter counts as set when a call in ``src/``, ``bench/``,
``benchmarks/`` or ``examples/``, outside the definition's own body,
names the callable by its last name component (a function or method
name, or the class name for ``__init__``) and passes the parameter by
keyword or by position, or through a ``*args`` splat.  A
``super().__init__(...)`` call names the ``__init__`` its class inherits
(the nearest base class that defines one), not every ``__init__``, and
so does a call of a class that defines no ``__init__`` of its own
(``Interrupt(cause)`` sets ``InterruptError.__init__``).  Four
indirections are followed:

- a ``**kwargs`` passthrough: keywords given to a preset such as
  ``run_fleet_scenario(**options)`` that the preset does not take itself
  count for the callable it forwards them to;
- a ``**mapping`` call: every identifier-like string literal of the
  function making it counts as a keyword (``repro incident`` builds its
  options dict), and a callee held in a local variable resolves to the
  names assigned to it;
- a class table: a call through a local name bound from a module-level
  dict of classes (``cls = DEVICE_CATALOG[kind]; cls(spec, serial)``)
  calls every class in the dict;
- a QMP dispatch: ``execute("<cmd>", k=...)`` sets ``_cmd_<cmd>(k)``, the
  handler :meth:`~repro.vmm.qmp.QmpServer.execute` looks up by name
  (hyphens become underscores).

An option nothing sets is a constant in disguise: make it one, and delete
the branches only other values reach.  The few kept on purpose are
listed in :data:`KEPT`, each with its reason.
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


def _is_super_init(node):
    func = node.func
    return (
        isinstance(func, ast.Attribute) and func.attr == "__init__"
        and isinstance(func.value, ast.Call) and isinstance(func.value.func, ast.Name)
        and func.value.func.id == "super"
    )


def _base_name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _table(node):
    """``(name, value names)`` of a module-level ``NAME = {key: Cls, ...}``."""
    if (
        isinstance(node, ast.Assign) and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name) and isinstance(node.value, ast.Dict)
        and node.value.values
        and all(isinstance(v, (ast.Name, ast.Attribute)) for v in node.value.values)
    ):
        return node.targets[0].id, {_base_name(v) for v in node.value.values}
    return None


def _walk_file(file, tree, defs, calls, forwards, classes, tables):
    """Collect ``tree``'s definitions (src only), calls and passthroughs;
    into ``classes`` each class's base names and whether it defines
    ``__init__``, and into ``tables`` each module-level dict of classes."""
    supers = {}  # id(super().__init__ call) -> enclosing class name
    bound = {}  # id(call through a local name) -> names assigned to it
    for node in tree.body:
        table = _table(node)
        if table:
            tables[table[0]] = table[1]

    def visit(node, owner):
        if isinstance(node, ast.ClassDef):
            classes[node.name] = (
                [_base_name(b) for b in node.bases],
                any(isinstance(c, _FUNCS) and c.name == "__init__" for c in node.body),
            )
            for sub in ast.walk(node):  # a nested class overwrites its own calls
                if isinstance(sub, ast.Call) and _is_super_init(sub):
                    supers[id(sub)] = node.name
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
                    elif isinstance(sub.func, ast.Name) and sub.func.id in assigned:
                        bound[id(sub)] = assigned[sub.func.id]
            owner = None  # a def nested in a function is no method
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    start = len(calls)
    visit(tree, None)
    splatted = {id(c[-1]) for c in calls[start:]}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in splatted:
            calls.append(_call(file, node, {}, set()))
            handler = _qmp_handler(node)
            if handler:
                names, npos, star, keywords, *rest = calls[-1]
                calls.append(({handler}, npos - 1, star, keywords, *rest))
    for i in range(start, len(calls)):
        node = calls[i][-1]
        owner = supers.get(id(node))
        if owner is not None:
            calls[i] = ({_SUPER + owner}, *calls[i][1:])
        elif id(node) in bound:
            tabled = {_TABLE + name for name in bound[id(node)]}
            calls[i] = (calls[i][0] | tabled, *calls[i][1:])


#: Callee-name prefix of a ``super().__init__`` call, resolved by :func:`_inherited_init`.
_SUPER = "super:"
#: Callee-name prefix of a name a called local was assigned from; it
#: resolves to the classes of the table of that name, if there is one.
_TABLE = "table:"


def _inherited_init(cls, classes):
    """The class whose ``__init__`` runs for ``super().__init__`` in ``cls``."""
    todo, seen = list(classes.get(cls, ((), False))[0]), set()
    while todo:
        base = todo.pop(0)
        if base in seen:
            continue
        seen.add(base)
        bases, defines_init = classes.get(base, ((), False))
        if defines_init:
            return {base}
        todo.extend(bases)
    return set()


def _qmp_handler(node):
    """``_cmd_<cmd>`` for a QMP ``execute("<cmd>", ...)`` call, else None."""
    if (
        isinstance(node.func, ast.Attribute) and node.func.attr == "execute"
        and node.args and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    ):
        return "_cmd_" + node.args[0].value.replace("-", "_")
    return None


def _call(file, node, assigned, extra_keywords):
    """``(names, positional count, star, keywords, file, line, node)``."""
    keywords = {k.arg for k in node.keywords if k.arg} | extra_keywords
    star = any(isinstance(a, ast.Starred) for a in node.args)
    npos = sum(1 for a in node.args if not isinstance(a, ast.Starred))
    return (_callee_names(node.func, assigned), npos, star, keywords, file, node.lineno, node)


def _scan():
    """``(file, line, "name(param)")`` of every src option nothing sets."""
    defs, calls, forwards, classes, tables = [], [], defaultdict(set), {}, {}
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            file = path.relative_to(ROOT).as_posix()
            _walk_file(
                file, ast.parse(path.read_text()), defs, calls, forwards, classes, tables
            )
    return _unset(defs, calls, forwards, classes, tables)


def _resolve(names, classes, tables):
    """The callables ``names`` reach: prefixed names resolved, and a class
    without an ``__init__`` of its own reaching the one it inherits."""
    resolved = set()
    for name in names:
        if name.startswith(_SUPER):
            resolved |= _inherited_init(name[len(_SUPER):], classes)
        elif name.startswith(_TABLE):
            resolved |= tables.get(name[len(_TABLE):], set())
        else:
            resolved.add(name)
    return resolved | {
        base for name in resolved
        if name in classes and not classes[name][1]
        for base in _inherited_init(name, classes)
    }


def _unset(defs, calls, forwards, classes, tables):
    """``(file, line, "name(param)")`` of each of ``defs``' options no call sets."""
    calls = [(_resolve(c[0], classes, tables), *c[1:]) for c in calls]
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


_REGISTRY = "a scenario knob; item 5's scenario registry will set it"
_FLOW = (
    "a keyword the slotted Flow keeps from its dataclass form "
    "(test_flow_is_slotted_and_keeps_its_keywords)"
)
_JOURNAL = (
    "the on-disk write-ahead log README documents; its per-record flush "
    "is the journal's durability path"
)

#: The options no caller outside tests sets, each with the reason it
#: stays an option; nothing may join, and an entry leaves once its option
#: is set or gone.
KEPT = {
    "FleetCheckpointService.rpo_at(t)": (
        "kept for the planned per-job checkpoint deadline and its RPO check"
    ),
    "Flow.__init__(_active)": _FLOW,
    "Flow.__init__(_finish_entry)": _FLOW,
    "Flow.__init__(_progressing)": _FLOW,
    "Flow.__init__(finished_at)": _FLOW,
    "Flow.__init__(rate_Bps)": _FLOW,
    "MigrationJournal.__init__(path)": _JOURNAL,
    "build_agc_cluster(calibration)": _REGISTRY,
    "run_table2_scenario(seed)": _REGISTRY,
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


def test_a_qmp_execute_sets_the_handler_it_dispatches_to():
    defs, calls, forwards = [], [], defaultdict(set)
    _walk_file(
        "examples/x.py",
        ast.parse('qmp.execute("query-migrate", uri="tcp:a:1", policy=p)'),
        defs, calls, forwards, {}, {},
    )
    dispatched = [c for c in calls if "_cmd_query_migrate" in c[0]]
    assert [(c[1], c[3]) for c in dispatched] == [(0, {"uri", "policy"})]


def test_super_init_sets_only_the_init_it_inherits():
    """``super().__init__(1)`` in ``B(A)`` sets ``A.__init__``'s first
    parameter, not that of every ``__init__`` in the tree."""
    source = (
        "class A:\n    def __init__(self, x=1): pass\n"
        "class M(A): pass\n"
        "class B(M):\n    def __init__(self, y=2):\n        super().__init__(5)\n"
        "class C:\n    def __init__(self, z=3): pass\n"
    )
    assert _unset_in(source) == {"B.__init__(y)", "C.__init__(z)"}


def test_calling_a_class_without_init_sets_the_init_it_inherits():
    """``Leaf(5)``, where ``Leaf(Mid)`` and ``Mid(Base)`` define no
    ``__init__``, sets ``Base.__init__``'s first parameter."""
    source = (
        "class Base:\n    def __init__(self, x=1, y=2): pass\n"
        "class Mid(Base): pass\n"
        "class Leaf(Mid): pass\n"
        "def make():\n    return Leaf(5)\n"
    )
    assert _unset_in(source) == {"Base.__init__(y)"}


def test_a_local_bound_from_a_class_table_calls_each_class():
    """``cls = TABLE[kind]; cls(0)`` sets the first parameter of every
    class ``TABLE`` holds, and of no other class."""
    source = (
        "class A:\n    def __init__(self, x=1): pass\n"
        "class B:\n    def __init__(self, x=1, y=2): pass\n"
        "class C:\n    def __init__(self, z=3): pass\n"
        "TABLE = {'a': A, 'b': B}\n"
        "def make(kind):\n    cls = TABLE[kind]\n    return cls(0)\n"
    )
    assert _unset_in(source) == {"B.__init__(y)", "C.__init__(z)"}


def _unset_in(source):
    """The unset option names of one ``src/`` file's ``source``."""
    defs, calls, forwards, classes, tables = [], [], defaultdict(set), {}, {}
    _walk_file("src/x.py", ast.parse(source), defs, calls, forwards, classes, tables)
    return {name for _, _, name in _unset(defs, calls, forwards, classes, tables)}


if __name__ == "__main__":
    for file, line, name in _scan():
        print(f"{file}:{line} {name}{'  (kept)' if name in KEPT else ''}")
