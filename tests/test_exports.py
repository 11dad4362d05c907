"""Each module's `__all__` lists exactly the public names the module itself
defines.

The package re-exports nothing and each name is imported from the module
that defines it (README, "Python API"), so a module's `__all__` must hold
every public module-level definition of that module (a function, class or
assigned name not starting with `_`) and no name it only imports.  The
sources are parsed, never imported.
"""
from __future__ import annotations

import ast

import pytest
from test_reachability import PACKAGE, _defined


def _exports(tree: ast.Module):
    """The names of the module's `__all__` list, or None without one."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
            return [ast.literal_eval(elt) for elt in stmt.value.elts]
    return None


def _modules_with_all() -> list[str]:
    return [path.stem for path in sorted(PACKAGE.glob("*.py")) if _exports(ast.parse(path.read_text())) is not None]


@pytest.mark.parametrize("module", _modules_with_all())
def test_all_lists_exactly_the_public_definitions(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    public = {name for stmt in tree.body for name in _defined(stmt) if not name.startswith("_")}
    exported = _exports(tree)
    assert len(exported) == len(set(exported)), f"{module}.__all__ lists a name twice"
    assert not public - set(exported), f"{module}.__all__ misses {sorted(public - set(exported))}"
    assert not set(exported) - public, f"{module}.__all__ lists names defined elsewhere: {sorted(set(exported) - public)}"
