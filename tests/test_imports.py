"""Every imported name is read somewhere in its module: an import nothing
reads is dead code."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# the package __init__ imports to re-export, so its names are read elsewhere
FILES = [p for p in sorted((ROOT / "src" / "latent_elevator").glob("*.py"))
         if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))


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
