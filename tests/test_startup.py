"""What the CLI loads at start-up and per command.

Each check runs in a fresh interpreter, because pytest itself imports
dataclasses and inspect, and records only the modules that starcob's own
imports and calls add to those the interpreter had already loaded.
"""
from __future__ import annotations

import json
import os
import pkgutil
import subprocess
import sys

import starcob

SRC = os.path.dirname(os.path.dirname(os.path.abspath(starcob.__file__)))

# the standard modules that cost most to import (dataclasses pulls in
# inspect, ast, dis and tokenize), and csv, which only --format csv needs
HEAVY_STDLIB = ("dataclasses", "inspect", "ast", "dis", "tokenize", "csv")


def _added_modules(code: str) -> set[str]:
    """The modules that running `code` in a fresh interpreter adds to
    sys.modules."""
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120, check=True
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_cli_loads_only_the_core():
    added = _added_modules("import starcob.cli")
    assert "starcob.cli" in added and "starcob.ainfty" in added
    for name in HEAVY_STDLIB + ("starcob.hochschild", "starcob.barcobar", "starcob.gradegroup", "starcob.gf2la"):
        assert name not in added, name


def test_relation_sweep_loads_no_cobar_or_cohomology_module():
    added = _added_modules(
        "import contextlib, io\n"
        "from starcob.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['verify', 'ainfty-a', '--n', '3']) == 0\n"
        "    assert main(['verify', 'ainfty-b', '--n', '3']) == 0"
    )
    for name in ("starcob.barcobar", "starcob.hochschild", "starcob.gf2la", "starcob.gradegroup"):
        assert name not in added, name


def test_no_module_of_the_package_imports_dataclasses():
    names = [f"starcob.{m.name}" for m in pkgutil.iter_modules(starcob.__path__)]
    assert "starcob.hochschild" in names and "starcob.cli" in names
    added = _added_modules("import importlib\n" + "".join(f"importlib.import_module({n!r})\n" for n in names))
    assert set(names) <= added
    for name in HEAVY_STDLIB:
        assert name not in added, name


def test_cohomology_loads_no_cobar_or_grading_group_module():
    # the twisted differential reads the dictionary off the weight slots, so
    # a cohomology table needs neither the cobar nor the grading-group module
    added = _added_modules(
        "import contextlib, io\n"
        "from starcob.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['cohomology', '--algebra', 'A', '--n', '3']) == 0\n"
        "    assert main(['cohomology', '--algebra', 'B', '--n', '3']) == 0"
    )
    assert "starcob.hochschild" in added
    for name in ("starcob.barcobar", "starcob.gradegroup"):
        assert name not in added, name
