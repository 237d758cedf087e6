"""The demos import only names that greymatch still provides.

The test suite does not run the demos (the CI workflow runs them as a step
of its own), so this parses each one and checks that every name it imports
from greymatch resolves; a rename in the package then fails here first.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def greymatch_imports(path):
    """(module, name) of every greymatch import in ``path``; name is None for ``import m``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "greymatch":
                for alias in node.names:
                    yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "greymatch":
                    yield alias.name, None


def test_demos_present():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_imports_resolve(path):
    imports = list(greymatch_imports(path))
    assert imports, f"{path.name} imports nothing from greymatch"
    missing = [f"{module}.{name}" for module, name in imports
               if name is not None and not hasattr(importlib.import_module(module), name)]
    assert not missing, f"{path.name} imports names greymatch lacks: {missing}"
