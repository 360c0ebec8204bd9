"""The package imports only the standard library, numpy and itself.

pyproject.toml declares numpy as the one runtime dependency, and scipy is a
test extra that src/ never imports; this reads every module's imports with
ast, so an import added anywhere in a module, not only at its top, fails here.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "bootplan").glob("*.py"))
ALLOWED = sys.stdlib_module_names | {"numpy", "bootplan"}


def imported_roots(tree: ast.AST) -> set[str]:
    """The top-level names of every absolute import in tree."""
    roots: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_every_module_is_checked():
    assert {path.name for path in SOURCES} >= {"__init__.py", "circuit.py", "formats.py", "lp.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_stay_in_the_declared_dependencies(path):
    roots = imported_roots(ast.parse(path.read_text(), filename=str(path)))
    assert roots - ALLOWED == set()


def test_the_check_sees_third_party_imports():
    tree = ast.parse("import scipy.optimize\nfrom .lp import Master\ndef f():\n    from pandas import x\n")
    assert imported_roots(tree) - ALLOWED == {"scipy", "pandas"}
