"""The demos import only names the package defines, and each runs to
completion: together they take a few seconds."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: seconds one demo may take; each takes under 2 s on a desktop core
DEMO_TIMEOUT = 60


def _package_imports(path: Path):
    """(module, name) for each ``from polydensity... import name`` and
    (module, None) for each ``import polydensity...`` in the file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] != "polydensity":
                continue
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "polydensity":
                    yield alias.name, None


def test_demos_exist():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    imports = list(_package_imports(path))
    assert imports
    for module, name in imports:
        owner = importlib.import_module(module)
        if name is not None:
            assert hasattr(owner, name), f"{path.name}: {module} has no {name}"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=DEMO_TIMEOUT,
    )
    assert result.returncode == 0, f"{path.name} failed:\n{result.stderr}"
