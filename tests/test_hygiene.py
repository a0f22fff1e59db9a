"""Source hygiene: every imported name in the package and the tests is used.

A name counts as used when it appears as a bare name or as the root of an
attribute chain anywhere in the module, or when the module lists it in
``__all__``.  Package ``__init__`` modules re-export their imports and
``__future__`` imports are compiler directives, so both are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/stieltjes/*.py")) + sorted(ROOT.glob("tests/*.py"))


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                yield node.lineno, alias.asname or alias.name.split(".")[0]


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(source: str) -> list:
    """(line, name) of every import binding that nothing in ``source`` reads."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    return [(line, name) for line, name in _imported(tree) if name not in used]


@pytest.mark.parametrize(
    "path",
    [p for p in SOURCES if p.name != "__init__.py"],
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import():
    src = "import math\nimport numpy as np\nfrom os import path, sep\nx = np.pi + len(sep)\n"
    assert unused_imports(src) == [(1, "math"), (3, "path")]


def test_checker_counts_exports_and_skips_future():
    src = "from __future__ import annotations\nfrom os import sep\n__all__ = ['sep']\n"
    assert unused_imports(src) == []
