"""Start-up cost of the package: ``import routegame`` and the command-line
front end load no numpy until a command computes, and the exported names
resolve lazily to the objects of their home modules."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import routegame

REPO = Path(__file__).resolve().parents[1]

# imports the package and its front end, then runs ``python -m routegame``
# with the given arguments in the same interpreter; the last stderr line
# reports the exit code and whether numpy got loaded
_CHILD = """
import runpy, sys
import routegame, routegame.cli
code = None
if sys.argv[1:]:
    try:
        runpy.run_module("routegame", run_name="__main__", alter_sys=True)
    except SystemExit as stop:
        code = stop.code
print(code, "numpy" in sys.modules, file=sys.stderr)
"""


@pytest.mark.parametrize("argv, code", [
    ([], None),
    (["--help"], 0),
    (["solve", "--tol", "0"], 3),
    (["validate", "--network", str(REPO / "networks" / "example2.json")], 0),
])
def test_front_end_starts_without_numpy(argv, code):
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, *argv], capture_output=True,
        text=True, timeout=60, cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert proc.stderr.splitlines()[-1] == f"{code} False", proc.stderr


@pytest.mark.parametrize("name", routegame.__all__)
def test_export_is_the_home_module_object(name):
    obj = getattr(routegame, name)
    assert getattr(sys.modules[obj.__module__], name) is obj


def test_exports_are_listed_and_bound():
    assert set(routegame.__all__) <= set(dir(routegame))
    namespace: dict = {}
    exec("from routegame import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(routegame.__all__)
    assert len(routegame.__all__) == 37


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        routegame.no_such_name
    assert not hasattr(routegame, "solve")
