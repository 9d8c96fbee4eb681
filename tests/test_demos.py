"""The demos import only names the package defines.  They are parsed, not
run: together they take tens of seconds."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


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
