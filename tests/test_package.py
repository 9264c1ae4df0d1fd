"""The package namespace carries what the demos import, every demo runs to
completion, and every name in a module's __all__ resolves."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import predopt

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(predopt.__path__))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _package_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.module == "predopt":
            yield from (alias.name for alias in node.names)


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    names = list(_package_imports(demo))
    assert names, f"{demo.name} imports nothing from predopt"
    missing = [name for name in names if not hasattr(predopt, name)]
    assert missing == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # an absolute source path, since the demo runs in tmp_path (where it writes its files)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"predopt.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
