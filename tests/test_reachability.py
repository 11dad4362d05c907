"""Every module-level name in `src/starcob` is reached by some caller.

A name is a module-level function, class or constant (dunders are exempt).
It is reached when it is referenced somewhere other than its own
definition: by an AST `Name` or `Attribute` node in `src/starcob`, in a
backtick span or python block of README.md, in tests/test_acceptance.py, or
in a TARGETS entry of perfbench/tracer.py.  The sources are read as text and
parsed, never imported, so the check costs a few tens of milliseconds.
"""
from __future__ import annotations

import ast
import re
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


def _referenced(node: ast.AST, imports: bool = False) -> set[str]:
    """The names read under node: loaded `Name`s and `Attribute`s, and with
    `imports` the names imported from a module."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out.add(sub.attr)
        elif imports and isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


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
    """`module.name` of each module-level name no caller reaches."""
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    outside = _readme_names() | _tracer_names() | _referenced(acceptance, imports=True)
    # the names each top-level statement reads, so that a definition's own
    # body does not count as a reference to it
    reads = [(module, stmt, _referenced(stmt)) for module, tree in modules.items() for stmt in tree.body]
    out = []
    for module, tree in modules.items():
        for stmt in tree.body:
            for name in _defined(stmt):
                if _is_dunder(name) or name in outside:
                    continue
                if not any(name in names for m, s, names in reads if not (m == module and s is stmt)):
                    out.append(f"{module}.{name}")
    return out


def test_every_module_level_name_is_reached():
    names = unreached()
    assert not names, "no caller reaches " + ", ".join(names)
