"""Word tables are cached in one place, `staralg.WordTable.held`.

The ainfty and barcobar kernels extend `staralg.WordTable` and ask the
holder for their tables, so no other module may build a table of a
`WordTable` class itself, keep one in a module global, or cache a table
builder with `functools.lru_cache` (or `functools.cache`).  The sources are
parsed, never imported.
"""
from __future__ import annotations

import ast
import re

import pytest
from test_reachability import PACKAGE

HOLDER = "staralg"
CACHES = ("lru_cache", "cache")


def _table_classes(trees: dict[str, ast.Module]) -> set[str]:
    """`WordTable` and every class in the package that extends one."""
    classes = {"WordTable"}
    defs = [stmt for tree in trees.values() for stmt in tree.body if isinstance(stmt, ast.ClassDef)]
    grew = True
    while grew:
        grew = False
        for stmt in defs:
            if stmt.name not in classes and any(_name(base) in classes for base in stmt.bases):
                classes.add(stmt.name)
                grew = True
    return classes


def _name(node: ast.AST) -> str:
    """The last name of a Name or Attribute node (`x` of `a.b.x`), else ''."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _mentions(node: ast.AST, classes: set[str]) -> bool:
    """Whether a table class is named under node, as a name or in a string
    annotation."""
    for sub in ast.walk(node):
        if _name(sub) in classes:
            return True
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if set(re.findall(r"\w+", sub.value)) & classes:
                return True
    return False


def _builds(node: ast.AST, classes: set[str]) -> bool:
    """Whether a call under node builds a table: a table class called, or
    its holder."""
    return any(
        isinstance(sub, ast.Call) and (_name(sub.func) in classes or _name(sub.func) == "held") for sub in ast.walk(node)
    )


def offenses(tree: ast.Module, classes: set[str]) -> list[str]:
    """Each place in one module (not the holder's) that caches a table
    outside the holder, or builds one itself."""
    found = []
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Call) and _name(sub.func) in classes:
            found.append(f"line {sub.lineno}: builds a {_name(sub.func)}")
        elif isinstance(sub, ast.Global):
            found.append(f"line {sub.lineno}: rebinds the module global {', '.join(sub.names)}")
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            cached = [d for d in sub.decorator_list if _name(d.func if isinstance(d, ast.Call) else d) in CACHES]
            builder = (sub.returns is not None and _mentions(sub.returns, classes)) or _builds(sub, classes)
            if cached and builder:
                found.append(f"line {sub.lineno}: caches the table builder {sub.name}")
    for stmt in tree.body:
        if isinstance(stmt, ast.AnnAssign) and _mentions(stmt.annotation, classes):
            found.append(f"line {stmt.lineno}: keeps a table in a module global")
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None and _builds(stmt.value, classes):
            found.append(f"line {stmt.lineno}: keeps a table in a module global")
    return found


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


@pytest.mark.parametrize("module", [name for name in _trees() if name != HOLDER])
def test_no_module_but_staralg_caches_a_table(module):
    trees = _trees()
    assert offenses(trees[module], _table_classes(trees)) == []


def test_the_kernels_table_classes_are_seen():
    assert {"WordTable", "_OpTables", "_WordTables"} <= _table_classes(_trees())


@pytest.mark.parametrize(
    "source",
    [
        # a builder behind an lru_cache, by its return annotation or its call
        "import functools\n@functools.lru_cache(maxsize=64)\n"
        "def _tables(algebra, n, max_len) -> _WordTables:\n    return make(algebra, n, max_len)\n",
        "from functools import cache\n@cache\ndef _tables(algebra, n, max_len):\n    return _WordTables.held(algebra, n, max_len)\n",
        # a table in a module global, rebound from a function
        "_held: Optional[_OpTables] = None\n",
        "def op_tables(algebra, n, max_len):\n    global _held\n    return _held\n",
        "_default = _WordTables.held('A', 3, 8)\n",
        # a table built outside the holder
        "def other(self):\n    return _WordTables('B', self.n, self.max_len)\n",
    ],
)
def test_each_way_round_the_holder_is_caught(source):
    assert offenses(ast.parse(source), {"WordTable", "_OpTables", "_WordTables"})
