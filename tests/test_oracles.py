"""The oracle module stays out of the production modules."""

import ast
from pathlib import Path

import pytest

import wittlink

PRODUCTION = ("rings", "witt", "cft", "orbits", "bridge", "cli")


def _imports_oracles(source: str) -> bool:
    """Whether any import statement in the source, at any depth, names a module oracles."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            paths = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        if any("oracles" in path.split(".") for path in paths):
            return True
    return False


@pytest.mark.parametrize("module", PRODUCTION)
def test_production_modules_do_not_import_oracles(module):
    source = (Path(wittlink.__file__).parent / f"{module}.py").read_text()
    assert not _imports_oracles(source)


@pytest.mark.parametrize("statement", [
    "from .oracles import crt_combine",
    "from . import oracles",
    "from wittlink.oracles import poly_resultant",
    "import wittlink.oracles",
    "def f():\n    from .oracles import cyclotomic_factor_degrees",
])
def test_the_guard_sees_each_import_form(statement):
    assert _imports_oracles(statement)
    assert not _imports_oracles(statement.replace("oracles", "rings"))


def test_verify_imports_oracles():
    assert _imports_oracles((Path(wittlink.__file__).parent / "verify.py").read_text())
