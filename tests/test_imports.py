"""Every name a wittlink module imports, or a function assigns, is read,
and no wittlink module holds an ``assert`` statement.

A stale import outlives the code that needed it (a helper that was folded
away, a constant no branch reads any more) and keeps a dead dependency
between modules.  The package ``__init__`` is exempt: re-exporting is what
its imports are for.  A stale local is the same leftover inside one
function.  ``python -O`` strips ``assert`` statements, so a check the
package relies on raises AssertionError explicitly.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wittlink"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_import():
    source = "from .rings import _context, is_prime\nimport math\n\nprint(is_prime(7))\n"
    assert unused_imports(source) == ["_context (line 1)", "math (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_scope(fn):
    """The nodes of fn's body outside any function or class nested in it."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def unused_locals(source: str) -> list[str]:
    """Names a function assigns that no expression in it, nested functions included, reads."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = list(ast.walk(fn))
        read = {n.id for n in body if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        read |= {name for n in body if isinstance(n, (ast.Global, ast.Nonlocal)) for name in n.names}
        stored = {}
        for node in _own_scope(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, node.lineno)
        found += [f"{fn.name}: {name} (line {line})" for name, line in stored.items() if name not in read | {"_"}]
    return sorted(found)


def test_the_check_sees_an_unused_local():
    source = (
        "def f(x):\n"
        "    spec = x.spec\n"
        "    total = 0\n"
        "    for _ in range(3):\n"
        "        total += 1\n"
        "    def g():\n"
        "        return total\n"
        "    return g\n"
    )
    assert unused_locals(source) == ["f: spec (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_local(path):
    assert unused_locals(path.read_text()) == []


def asserts(source: str) -> list[int]:
    """The lines of the assert statements in source."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


def test_the_check_sees_an_assert():
    source = "def f(x):\n    if x:\n        assert x > 0, 'negative'\n    return x\n"
    assert asserts(source) == [3]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_assert_statement(path):
    assert asserts(path.read_text()) == []
