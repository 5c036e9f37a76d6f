"""Every imported name is read somewhere in its module, every parameter
of a package function is read in its body, and every top-level function,
class or assigned name of the package is read somewhere in it: an import,
a parameter or a definition nothing reads is dead code. No package
function takes a schedule beside a model, which owns its schedule."""
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


# a model is a parameter of one of these types, or the self of a denoiser
MODEL_TYPES = {"Denoiser", "AnalyticDenoiser", "CrossFrameDenoiser"}


def _type_names(annotation) -> set:
    """The names an annotation mentions, inside string annotations too."""
    names = set()
    for node in ast.walk(annotation) if annotation is not None else ():
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names |= _type_names(ast.parse(node.value, mode="eval").body)
    return names


def _functions(body, prefix: str = "", in_denoiser: bool = False):
    """``(qualified name, function, is a method of a denoiser)`` for each
    function in ``body``, in classes and functions too; a denoiser class is
    one that defines ``predict_eps``."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            denoiser = any(isinstance(n, ast.FunctionDef) and n.name == "predict_eps"
                           for n in node.body)
            yield from _functions(node.body, f"{prefix}{node.name}.", denoiser)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}{node.name}", node, in_denoiser
            yield from _functions(node.body, f"{prefix}{node.name}.")


def models_beside_schedules(source: str) -> list:
    """Each function or method that takes both a model and a parameter
    annotated ``NoiseSchedule``. A model carries its own schedule, so such
    a signature lets a caller pair a model with another model's schedule.
    A denoiser's ``__init__``, where a model receives its schedule, is
    exempt."""
    found = []
    for name, fn, in_denoiser in _functions(ast.parse(source).body):
        a = fn.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        types = [_type_names(p.annotation) for p in params]
        own = in_denoiser and fn.name != "__init__" and [p.arg for p in params[:1]] == ["self"]
        model = own or any(t & MODEL_TYPES for t in types)
        if model and any("NoiseSchedule" in t for t in types):
            found.append(name)
    return sorted(found)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_model_takes_a_schedule(path):
    assert models_beside_schedules(path.read_text()) == []


def test_models_beside_schedules_are_flagged():
    source = ("from . import schedule\n"
              "from .schedule import NoiseSchedule\n"
              "class AnalyticDenoiser:\n"
              "    def __init__(self, prior, schedule: NoiseSchedule):\n"
              "        self.schedule = schedule\n"
              "    def predict_eps(self, z, t, s: NoiseSchedule):\n        return z\n"
              "    def eps_gain(self, ab):\n        return ab\n"
              "class Grid:\n"
              "    def at(self, s: 'NoiseSchedule'):\n        return s\n"
              "def step(model: 'Denoiser', z, s: NoiseSchedule | None = None):\n"
              "    return z\n"
              "def chain(model: CrossFrameDenoiser, z, grid):\n    return z\n"
              "def hop(s: schedule.NoiseSchedule, a, b):\n    return a\n"
              "def sdedit(model: AnalyticDenoiser, *, rng, s: schedule.NoiseSchedule):\n"
              "    def inner(m: AnalyticDenoiser, s: 'NoiseSchedule'):\n        return m\n"
              "    return inner\n")
    assert models_beside_schedules(source) == ["AnalyticDenoiser.predict_eps", "sdedit",
                                               "sdedit.inner", "step"]
