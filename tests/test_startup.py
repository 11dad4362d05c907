"""What the CLI loads at start-up and per command.

Each check runs in a fresh interpreter, because pytest itself imports
dataclasses and inspect, and records only the modules that starcob's own
imports and calls add to those the interpreter had already loaded.
"""
from __future__ import annotations

import os
import pkgutil
import subprocess
import sys

import pytest

import starcob

SRC = os.path.dirname(os.path.dirname(os.path.abspath(starcob.__file__)))

# the standard modules that cost most to import (dataclasses pulls in
# inspect, ast, dis and tokenize), and csv, which only --format csv needs
HEAVY_STDLIB = ("dataclasses", "inspect", "ast", "dis", "tokenize", "csv")


# the relation kernel and the word algebra it builds on, which start-up
# does not load
KERNEL = ("starcob.ainfty", "starcob.staralg", "starcob.ring")


def _added_modules(code: str) -> set[str]:
    """The modules that running `code` in a fresh interpreter adds to
    sys.modules.  The script imports nothing but sys before it takes its
    snapshot, so the json package counts when `code` loads it."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120, check=True
    )
    return set(proc.stdout.splitlines()[-1].split())


def _main_added_modules(*argvs: list[str]) -> set[str]:
    """The modules that running main on each argv in turn adds, with the
    exit code each argv is expected to give (1 under an injected fault)."""
    calls = "".join(
        f"    assert main({argv!r}) == {1 if '--inject-fault' in argv else 0}\n" for argv in argvs
    )
    return _added_modules(
        "import contextlib, io\n"
        "from starcob.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n" + calls
    )


def test_import_package_loads_no_submodule():
    added = _added_modules("import starcob")
    assert "starcob" in added
    assert not [name for name in added if name.startswith("starcob.")]


def test_import_cli_loads_only_the_core():
    added = _added_modules("import starcob.cli")
    assert "starcob.cli" in added
    for name in HEAVY_STDLIB + KERNEL + ("json", "json.decoder", "starcob.hochschild", "starcob.barcobar", "starcob.gradegroup", "starcob.gf2la"):
        assert name not in added, name


def test_relation_sweep_loads_no_cobar_or_cohomology_module():
    added = _main_added_modules(["verify", "ainfty-a", "--n", "3"], ["verify", "ainfty-b", "--n", "3"])
    assert "starcob.ainfty" in added
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
    # a cohomology table needs neither the cobar nor the grading-group module,
    # and no higher operation
    added = _main_added_modules(["cohomology", "--algebra", "A", "--n", "3"], ["cohomology", "--algebra", "B", "--n", "3"])
    assert "starcob.hochschild" in added
    for name in ("starcob.barcobar", "starcob.gradegroup", "starcob.ainfty"):
        assert name not in added, name


@pytest.mark.parametrize("fault", [[], ["--inject-fault", "break-h"]], ids=["clean", "break-h"])
def test_homotopy_sweep_loads_no_relation_module(fault):
    added = _main_added_modules(["verify", "homotopy", "--n", "3", "--max-len", "4", *fault])
    assert "starcob.barcobar" in added
    for name in ("starcob.ainfty", "starcob.gradegroup", "starcob.hochschild"):
        assert name not in added, name
