"""Every module-level name in `src/starcob`, and every method and property
of a module-level class, is reached by some caller.

A name is a module-level function, class or constant, or a function
defined in the body of a module-level class (dunders are exempt).  It is
reached when it is referenced somewhere other than its own definition: by
an AST `Name` or `Attribute` node in `src/starcob`, in a backtick span or
python block of README.md, in tests/test_acceptance.py, or in a TARGETS
entry of perfbench/tracer.py.  A method is matched by its name alone, so
any `.name` reference reaches it, but its own body does not.  The sources
are read as text and parsed, never imported, so the check costs a few tens
of milliseconds.
"""
from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "starcob"


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _defined(stmt: ast.stmt) -> list[str]:
    """The module-level names one top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _methods(stmt: ast.stmt) -> list[ast.stmt]:
    """The functions defined in the body of a class statement (methods,
    properties, static and class methods)."""
    if not isinstance(stmt, ast.ClassDef):
        return []
    return [sub for sub in stmt.body if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _reads(node: ast.AST, imports: bool = False) -> Counter:
    """How often each name is read under node: loaded `Name`s and
    `Attribute`s, and with `imports` the names imported from a module."""
    out: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out[sub.attr] += 1
        elif imports and isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _referenced(node: ast.AST, imports: bool = False) -> set[str]:
    """The names read under node, as in `_reads`."""
    return set(_reads(node, imports))


def _readme_names() -> set[str]:
    text = (ROOT / "README.md").read_text()
    out = set()
    for block in re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M):
        out |= _referenced(ast.parse(block), imports=True)
    prose = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
    for span in re.findall(r"`([^`\n]+)`", prose):
        out.update(re.findall(r"[A-Za-z_]\w*", span))
    return out


def _tracer_names() -> set[str]:
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    out = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in stmt.targets):
            for entry in stmt.value.elts:
                out.update(entry.elts[1].value.split("."))
    assert out, "perfbench/tracer.py has no TARGETS entries"
    return out


def unreached() -> list[str]:
    """`module.name` of each module-level name, and `module.Class.name` of
    each method or property, that no caller reaches."""
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    outside = _readme_names() | _tracer_names() | _referenced(acceptance, imports=True)
    # a name is read elsewhere when it is read more often in the package
    # than in its own definition
    total = sum((_reads(tree) for tree in modules.values()), Counter())

    def reached(name: str, definition: ast.stmt) -> bool:
        return _is_dunder(name) or name in outside or total[name] > _reads(definition)[name]

    out = []
    for module, tree in modules.items():
        for stmt in tree.body:
            out += [f"{module}.{name}" for name in _defined(stmt) if not reached(name, stmt)]
            out += [f"{module}.{stmt.name}.{m.name}" for m in _methods(stmt) if not reached(m.name, m)]
    return out


def test_every_module_level_name_is_reached():
    names = unreached()
    assert not names, "no caller reaches " + ", ".join(names)
