"""Every ``def`` and ``class`` in ``src/`` is run by something other than tests.

A name counts as referenced when a name, an attribute, or a string literal
that is exactly a (dotted) identifier names it anywhere in ``src/``,
``bench/``, ``benchmarks/`` or ``examples/`` outside the definition's own
body.  String literals count because ``bench/layers.py`` wraps methods by
name (``cls.__dict__["set_cap"]``).  Imports and ``__all__`` lists do not
count: a re-export is not a use.  Dunder methods are called by the
interpreter and are skipped.

A definition nothing references is deleted together with the tests whose
subject it is, or moved into ``tests/`` when a test needs it as a
reference.  The few that stay for a reason the scan cannot see are listed
in :data:`KEPT`.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "bench", "benchmarks", "examples")

_QMP = "QMP handler, dispatched by name from the command string"
_BTL = "BTL component, registered by its class decorator"

#: Definitions with no reference the scan can see, and why each stays.
KEPT = {
    "rpo_at": "kept for the planned per-job checkpoint deadline and its RPO check",
    "_cmd_query_status": _QMP,
    "_cmd_stop": _QMP,
    "_cmd_cont": _QMP,
    "_cmd_device_del": _QMP,
    "_cmd_device_add": _QMP,
    "_cmd_migrate": _QMP,
    "_cmd_migrate_set_speed": _QMP,
    "_cmd_migrate_set_downtime": _QMP,
    "_cmd_query_migrate": _QMP,
    "MxBtl": _BTL,
    "OpenIbBtl": _BTL,
    "SmBtl": _BTL,
    "TcpBtl": _BTL,
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_all(node: ast.AST) -> bool:
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _nodes(tree: ast.AST):
    """Every node of ``tree`` except the inside of imports and ``__all__``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and _is_all(node):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``from m import f as g``: the import is where ``f`` gets used.
            stack.extend(ast.Name(a.name.rpartition(".")[2], lineno=node.lineno)
                         for a in node.names if a.asname not in (None, a.name))
            continue
        stack.extend(ast.iter_child_nodes(node))


def _scan():
    """``(file, name, line)`` of every src definition nothing references."""
    defs = []  # (file, name, first line, last line)
    refs = defaultdict(list)  # name -> [(file, line)]
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            file = path.relative_to(ROOT).as_posix()
            for node in _nodes(ast.parse(path.read_text())):
                kind = type(node)
                if kind is ast.Name:
                    refs[node.id].append((file, node.lineno))
                elif kind is ast.Attribute:
                    refs[node.attr].append((file, node.lineno))
                elif kind is ast.Constant and type(node.value) is str:
                    if _DOTTED.fullmatch(node.value):
                        for part in node.value.split("."):
                            refs[part].append((file, node.lineno))
                elif top == "src" and kind in _DEFS:
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    defs.append((file, node.name, first, node.end_lineno))
    return [
        (file, name, first)
        for file, name, first, last in defs
        if not (name.startswith("__") and name.endswith("__"))
        and all(f == file and first <= line <= last for f, line in refs.get(name, ()))
    ]


def test_every_src_definition_has_a_caller():
    unused = _scan()
    stray = [u for u in unused if u[1] not in KEPT]
    assert not stray, "defined in src/ but run only by tests (delete, or move into tests/):\n" + (
        "\n".join(f"  {file}:{line} {name}" for file, name, line in stray)
    )
    assert set(KEPT) <= {name for _, name, _ in unused}, "KEPT names a definition that is gone or now referenced"


if __name__ == "__main__":
    for file, name, line in _scan():
        print(f"{file}:{line} {name}{'  (kept)' if name in KEPT else ''}")
