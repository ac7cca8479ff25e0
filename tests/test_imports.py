"""Every name a module of the package imports is used in that module.

A module under ``src/parisian`` imports a name to read it, or to export it
through its ``__all__``.  An import that nothing reads is left behind by a
change that moved its last use elsewhere, and no other check finds it.
"""

import ast
from pathlib import Path

import pytest

import parisian

MODULES = sorted(Path(parisian.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """The names ``source`` imports but neither reads nor lists in ``__all__``."""

    tree = ast.parse(source)
    imported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``import a.b`` binds ``a``
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_checker_finds_an_unused_import():
    source = ("import os\nimport numpy as np\nfrom typing import List, Tuple\n"
              "from .a import b\n__all__ = ['b']\nx: List = np.zeros(1)\n")
    assert unused_imports(source) == ["Tuple", "os"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == [], path.name
