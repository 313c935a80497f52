"""The oracle module stays out of the production modules, and its payload-loop division and gcd stay in it."""

import ast
from pathlib import Path

import pytest

import wittlink

PRODUCTION = ("__init__", "rings", "witt", "cft", "orbits", "bridge", "cli")


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


ORACLE_ONLY = ("poly_divmod", "poly_gcd_monic")


def _binds_oracle_only_names(source: str) -> list[str]:
    """The names of ORACLE_ONLY that the source defines, assigns or imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {part for alias in node.names for part in (alias.name, alias.asname) if part}
    return sorted(found.intersection(ORACLE_ONLY))


@pytest.mark.parametrize(
    "module", sorted(p.stem for p in Path(wittlink.__file__).parent.glob("*.py") if p.stem != "oracles")
)
def test_only_oracles_has_the_payload_division_and_gcd(module):
    # the payload-loop Euclid checks the F_q normalization; a production copy would make that check circular
    source = (Path(wittlink.__file__).parent / f"{module}.py").read_text()
    assert _binds_oracle_only_names(source) == []


@pytest.mark.parametrize("statement", [
    "def poly_divmod(f, g):\n    pass",
    "from .rings import poly_gcd_monic",
    "from .oracles import poly_divmod as divide",
    "poly_gcd_monic = None",
    "class C:\n    def poly_divmod(self):\n        pass",
])
def test_the_oracle_name_guard_sees_each_form(statement):
    assert _binds_oracle_only_names(statement)
    assert not _binds_oracle_only_names(statement.replace("poly_", "list_"))


def test_oracles_defines_the_payload_division_and_gcd():
    source = (Path(wittlink.__file__).parent / "oracles.py").read_text()
    assert _binds_oracle_only_names(source) == list(ORACLE_ONLY)


def _names_from_witt(source: str) -> set[str]:
    """The names source imports from a module witt, at any depth; ``witt`` for the module itself."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "witt":
            found |= {alias.name for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {"witt" for alias in node.names if alias.name.split(".")[-1] == "witt"}
    return found


def test_oracles_takes_only_the_vector_type_from_witt():
    # an oracle reading the Newton route's power sums or rebuilds would check that route against itself
    source = (Path(wittlink.__file__).parent / "oracles.py").read_text()
    assert _names_from_witt(source) == {"WittVector"}


@pytest.mark.parametrize("statement", [
    "from .witt import _power_sums",
    "from wittlink.witt import WittVector, frobenius",
    "from . import witt",
    "import wittlink.witt",
    "def f():\n    from .witt import _power_sums",
])
def test_the_witt_guard_sees_each_import_form(statement):
    assert _names_from_witt(statement) - {"WittVector"}
    assert not _names_from_witt(statement.replace("witt", "rings"))
