"""Every name a wittlink module imports, or a function assigns, is read;
every function, class and method it defines has a reader; every module
imports on its own; and no wittlink module holds an ``assert`` statement.

A stale import outlives the code that needed it (a helper that was folded
away, a constant no branch reads any more) and keeps a dead dependency
between modules.  The package ``__init__`` is held to the same check, so it
cannot bind a second import path for a name: each name is imported from
its own module.  A stale local is the same leftover inside one function.
A definition that no module of the package reads and README does not name
is surface kept alive only by its own tests; ``oracles`` holds the tests'
references, so its definitions are exempt.  A top-level function or class
is read only through its bare name or an import of it, and a method only
through an attribute of something other than an imported module, so
``r.legendre`` does not keep a function ``legendre`` and
``functools.reduce`` does not keep a method ``reduce``.  A classmethod or
staticmethod is read only through its class (``<Class>.<name>`` or
``cls.<name>``), so a read of another object's method of the same name
does not keep it.
``python -O`` strips ``assert`` statements, so a check the package relies
on raises AssertionError explicitly.
Every module-level cache (a function under ``functools.lru_cache`` or
``functools.cache``, or a module dict built empty) is listed in ``CACHES``
with its owner and why its key space is bounded, or that it is not.  A
``functools.cached_property`` is owned by its instance and is not listed.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wittlink"
MODULES = sorted(PACKAGE.glob("*.py"))


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


_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _on_class(fn) -> bool:
    """Whether fn is a classmethod or a staticmethod."""
    return any(isinstance(d, ast.Name) and d.id in ("classmethod", "staticmethod") for d in fn.decorator_list)


def definitions(source: str) -> dict[str, set[str]]:
    """The top-level functions and classes of source, and its classes' methods other than dunders,
    each with the reads that count for it: its bare name; for a method ``.<name>``; for a
    classmethod or staticmethod only ``<Class>.<name>`` and ``cls.<name>``."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (*_FUNCS, ast.ClassDef)):
            found[node.name] = {node.name}
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, _FUNCS) and not (m.name.startswith("__") and m.name.endswith("__")):
                    qualified = f"{node.name}.{m.name}"
                    found[qualified] = {qualified, f"cls.{m.name}"} if _on_class(m) else {f".{m.name}"}
    return found


def reads(source: str) -> set[str]:
    """The names source reads or imports, ``.<attribute>`` for an attribute of anything but an
    imported module, and ``<name>.<attribute>`` for an attribute of a name."""
    tree = ast.parse(source)
    nodes = [n for n in ast.walk(tree) if not isinstance(getattr(n, "ctx", None), ast.Store)]
    modules = {a.asname or a.name.split(".")[0] for n in nodes if isinstance(n, ast.Import) for a in n.names}
    imported = {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names}
    attributes = [n for n in nodes if isinstance(n, ast.Attribute)]
    return ({n.id for n in nodes if isinstance(n, ast.Name)} | imported
            | {f".{n.attr}" for n in attributes if not (isinstance(n.value, ast.Name) and n.value.id in modules)}
            | {f"{n.value.id}.{n.attr}" for n in attributes if isinstance(n.value, ast.Name)})


def dead_definitions(defining: dict, reading, named=frozenset()) -> list[str]:
    """The definitions of each module in defining that no reading source reads and named lacks."""
    read = set().union(*map(reads, reading)) | set(named)
    return sorted(f"{module}: {name}" for module, source in defining.items()
                  for name, readers in definitions(source).items() if not readers & read)


def test_the_check_sees_a_dead_definition():
    defining = {"a.py": (
        "class A:\n"
        "    def used(self):\n"
        "        return self.size\n"
        "    def unused(self):\n"
        "        self.size = 0\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "def helper():\n"
        "    pass\n"
        "def documented():\n"
        "    pass\n"
    )}
    reading = [*defining.values(), "from .a import A\nA().used()\n"]
    assert dead_definitions(defining, reading, {"documented"}) == ["a.py: A.unused", "a.py: helper"]


def test_the_check_reads_a_classmethod_only_through_its_class():
    defining = {"a.py": (
        "class A:\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls.build()\n"
        "    @classmethod\n"
        "    def build(cls):\n"
        "        return cls()\n"
        "    @classmethod\n"
        "    def zero(cls):\n"
        "        return cls()\n"
        "    @staticmethod\n"
        "    def pow(a, b):\n"
        "        return a ** b\n"
        "class B:\n"
        "    def zero(self):\n"
        "        return 0\n"
    )}
    # the builtin pow and B's own zero do not read A.pow and A.zero
    reading = [*defining.values(), "from .a import A, B\nA.make()\nB().zero()\nprint(pow(2, 3))\n"]
    assert dead_definitions(defining, reading) == ["a.py: A.pow", "a.py: A.zero"]


def test_the_check_reads_no_definition_through_an_unrelated_attribute():
    defining = {"a.py": (
        "class A:\n"
        "    def reduce(self):\n"
        "        return 0\n"
        "def legendre():\n"
        "    pass\n"
    )}
    # functools.reduce is not A.reduce, and another object's legendre attribute is not the function
    reading = [*defining.values(), "import functools\nfrom .a import A\nfunctools.reduce(max, [A()])\nprint(r.legendre)\n"]
    assert dead_definitions(defining, reading) == ["a.py: A.reduce", "a.py: legendre"]
    reading = [*defining.values(), "from .a import A, legendre\nA().reduce()\n"]
    assert dead_definitions(defining, reading) == []


# definitions no module reads and README does not name, kept on purpose
KEPT = {
    "psi_level": "the level map psi on one point, which the bridge docstring and the roadmap name",
    "WittVector.zero": "the Witt ring's additive identity, the constant series 1",
    "WittVector.one": "the Witt ring's multiplicative identity, the Teichmueller lift 1 - t",
    "_Parser.error": "argparse calls it on a usage error; the override turns exit 2 into ParseError",
}


def test_every_definition_has_a_reader():
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    named = {word for span in re.findall(r"`([^`\n]+)`", readme) for word in re.findall(r"\w+", span)}
    sources = {p.name: p.read_text() for p in MODULES}
    defining = {name: source for name, source in sources.items() if name != "oracles.py"}
    assert set(KEPT) <= {d for source in defining.values() for d in definitions(source)}
    dead = dead_definitions(defining, sources.values(), named)
    assert [d for d in dead if d.split(": ", 1)[1] not in KEPT] == []


def caches(source: str) -> list[str]:
    """The functions source decorates with functools.lru_cache or functools.cache, and its
    module-level dicts built empty."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, _FUNCS):
            for d in node.decorator_list:
                d = d.func if isinstance(d, ast.Call) else d
                if isinstance(d, ast.Attribute) and isinstance(d.value, ast.Name) and d.value.id == "functools" \
                        and d.attr in ("lru_cache", "cache"):
                    found.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Dict) \
                and not node.value.keys:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [t.id for t in targets if isinstance(t, ast.Name)]
    return sorted(found)


def test_the_check_sees_a_cache():
    source = (
        "import functools\n"
        "_SEEN: dict[int, list] = {}\n"
        "_TABLE = {1: 2}\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def a(n):\n"
        "    return n\n"
        "@functools.cache\n"
        "def b():\n"
        "    return 0\n"
        "class C:\n"
        "    @functools.cached_property\n"
        "    def d(self):\n"
        "        return 0\n"
    )
    assert caches(source) == ["_SEEN", "a", "b"]


# every module-level cache of the package: its owner, and the bound its
# comment gives; bounding the unbounded ones is ROADMAP item 1
CACHES = {
    "cft.unit_group": "cft's groups: one tuple per level asked for; unbounded",
    "cft.quotient_group": "cft's groups: one table per (modulus, subgroup) asked for; unbounded",
    "cft._cyclic_quotient": "cyclic_quotient: one quotient per (m, g mod m) asked for; unbounded",
    "cft._cyclic_quotients": "cyclic_quotient: a short list per (m, order) of the quotients built; unbounded",
    "cft._carmichael": "cft._order: one per modulus of a quotient table whose orders are taken",
    "cft.quadratic_field_subgroup": "the quadratic fields: one per odd prime q; the CLI's reciprocity table takes q < 2,000",
    "cli.build_parser": "cli.main: one parser, as it takes no argument",
    "rings.cyclotomic_polynomial": "RingSpec.cyclotomic and the oracles: one per level n; C<n> and its divisors stop at 100, "
                                   "verify-all at --cyclotomic-bound",
    "rings._ext_field_modulus": "RingSpec.ext_field: one per (p, k); the decoder's fields F_p^k have at most 2^12 elements",
    "rings._kernel": "rings._fused: one per modulus, of width at most 96 over the CLI's C<n> rings and 12 over F_q",
    "witt._PROBES": "witt._probe_primes: one list per level n (C<n> stops at 100), as long as the most probes one gcd took",
    "witt._root_maps": "witt._cyclotomic_gcd: one pair of matrices per (n, q, omega) that _PROBES holds",
}


def test_every_cache_is_listed():
    found = {f"{p.stem}.{name}" for p in MODULES for name in caches(p.read_text())}
    assert found == set(CACHES)


def asserts(source: str) -> list[int]:
    """The lines of the assert statements in source."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


def test_the_check_sees_an_assert():
    source = "def f(x):\n    if x:\n        assert x > 0, 'negative'\n    return x\n"
    assert asserts(source) == [3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_assert_statement(path):
    assert asserts(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_alone(path):
    # a fresh interpreter, so no other module of the package is loaded first
    module = "wittlink" if path.name == "__init__.py" else f"wittlink.{path.stem}"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-W", "error", "-c", f"import {module}"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
