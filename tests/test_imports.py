"""Every imported name is read somewhere in its module, every parameter
of a package function is read in its body, and every top-level function,
class or assigned name of the package is read somewhere in it: an import,
a parameter or a definition nothing reads is dead code."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# the package __init__ imports to re-export, so its names are read elsewhere
PACKAGE = sorted((ROOT / "src" / "latent_elevator").glob("*.py"))
FILES = [p for p in PACKAGE if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by an import that never appear as an ``ast.Name``;
    ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_names_are_flagged():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom math import pi, tau as turn\n"
              "np.zeros(1)\nprint(turn)\n")
    assert unused_imports(source) == ["os", "pi"]


def _is_stub(fn) -> bool:
    """A body of an optional docstring plus ``...``, as a Protocol method has."""
    consts = [s.value.value for s in fn.body
              if isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant)]
    return len(consts) == len(fn.body) and consts[-1] is Ellipsis


def unused_params(source: str) -> list:
    """``function.param`` for each parameter its function never reads as an
    ``ast.Name``; ``self``, ``cls``, ``_``-prefixed names and stubs are exempt."""
    unused = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or _is_stub(fn):
            continue
        a = fn.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        read = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += [f"{fn.name}.{p.arg}" for p in params if p.arg not in read
                   and p.arg not in ("self", "cls") and not p.arg.startswith("_")]
    return sorted(unused)


# tests are not scanned: fixtures are requested for their side effects
@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_parameter_is_read(path):
    assert unused_params(path.read_text()) == []


def test_unused_params_are_flagged():
    source = ("class P:\n"
              "    def stub(self, x):\n        \"\"\"Doc.\"\"\"\n        ...\n"
              "    def method(self, a, _b, *args, c=1, **kw):\n        return a + sum(kw)\n"
              "def step(z, t, rng):\n    def inner(u):\n        return z\n    return inner(t)\n")
    assert unused_params(source) == ["inner.u", "method.args", "method.c", "step.rng"]


def _defined_names(node) -> list:
    """The names a top-level statement defines: a function's or class's, or
    each name an assignment binds, dunders such as ``__all__`` exempt."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for target in targets for t in ast.walk(target)
            if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)
            and not (t.id.startswith("__") and t.id.endswith("__"))]


def unread_definitions(sources: dict) -> list:
    """``file:name`` for each top-level function, class or assigned name of
    the ``{file: source}`` modules that no module reads, as an ``ast.Name``
    load or an attribute; a name an ``__init__.py`` imports is re-exported,
    so read."""
    defined, read = [], set()
    for name, source in sources.items():
        tree = ast.parse(source)
        defined += [(name, d) for node in tree.body for d in _defined_names(node)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and name.endswith("__init__.py"):
                read.update(a.name for a in node.names)
    return sorted(f"{name}:{d}" for name, d in defined if d not in read)


def test_every_definition_is_read():
    assert unread_definitions({p.name: p.read_text() for p in PACKAGE}) == []


def test_unread_definitions_are_flagged():
    sources = {
        "__init__.py": "from .a import exported\n",
        "a.py": ("import b\n\ndef exported():\n    return helper() + b.used()\n\n"
                 "def helper():\n    return 1\n\ndef orphan():\n    return helper\n\n"
                 "class Unused:\n    def method(self):\n        return 0\n"),
        "b.py": "from a import orphan as _o\n\ndef used():\n    return 2\n",
        "c.py": ("__all__ = ['LIMIT']\nLIMIT, (LOW, HIGH) = 3, (0, 9)\nSTALE: int = 1\n"
                 "TABLE = {}\nTABLE['k'] = LOW\n\ndef bound(x):\n    return min(x, b.CAP)\n"),
    }
    assert unread_definitions(sources) == ["a.py:Unused", "a.py:orphan", "c.py:HIGH",
                                           "c.py:LIMIT", "c.py:STALE", "c.py:bound"]
