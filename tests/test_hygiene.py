"""Source hygiene: every imported name and every package constant is used.

An import counts as used when it appears as a bare name or as the root of an
attribute chain anywhere in the module, or when the module lists it in
``__all__``.  Package ``__init__`` modules re-export their imports and
``__future__`` imports are compiler directives, so both are skipped.

A module-level UPPER_CASE constant of the package counts as read when any
module of the package or the tests reads it as a name or an attribute, or
lists it in an ``__all__``.  A private (``_name``) module-level function or
class of the package, or a private method of one of its classes, counts as
referenced on the same terms.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/stieltjes/*.py"))
SOURCES = PACKAGE + sorted(ROOT.glob("tests/*.py"))


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


def constants(source: str) -> list:
    """(line, name) of every module-level UPPER_CASE assignment in ``source``."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        out += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name) and t.id.isupper()]
    return out


def read_names(sources) -> set:
    """Names read as a bare name or an attribute, or exported, in any of ``sources``."""
    names = set()
    for source in sources:
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        names |= _exported(tree)
    return names


@pytest.fixture(scope="module")
def everything_read():
    return read_names(p.read_text(encoding="utf-8") for p in SOURCES)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unread_constants(path, everything_read):
    defined = constants(path.read_text(encoding="utf-8"))
    assert [(line, name) for line, name in defined if name not in everything_read] == []


def test_checker_flags_an_unread_constant():
    src = "A = 1\nB = 2\n_C: int = 3\nD = 4\nlower = 5\n__all__ = ['D']\nprint(A)\n"
    defined = constants(src)
    assert defined == [(1, "A"), (2, "B"), (3, "_C"), (4, "D")]
    read = read_names([src, "import m\nm._C\n"])
    assert [name for _line, name in defined if name not in read] == ["B"]


def private_definitions(source: str) -> list:
    """(line, name) of every private module-level function or class, and private method."""
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        defs = [node]
        if isinstance(node, ast.ClassDef):
            defs += [m for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
        out += [(d.lineno, d.name) for d in defs
                if d.name.startswith("_") and not d.name.endswith("__")]
    return out


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unreferenced_private_definitions(path, everything_read):
    defined = private_definitions(path.read_text(encoding="utf-8"))
    assert [(line, name) for line, name in defined if name not in everything_read] == []


def test_checker_flags_an_unreferenced_private_definition():
    src = (
        "def _a(): pass\n"
        "def _b(): pass\n"
        "def pub(): return _a()\n"
        "class _K:\n"
        "    def __init__(self): self._m()\n"
        "    def _m(self): pass\n"
        "    def _n(self): pass\n"
    )
    defined = private_definitions(src)
    assert defined == [(1, "_a"), (2, "_b"), (4, "_K"), (6, "_m"), (7, "_n")]
    read = read_names([src, "import m\nm._K\n"])
    assert [name for _line, name in defined if name not in read] == ["_b", "_n"]


def structure_readers(source: str) -> set:
    """Names of the top-level definitions of ``source`` that read ``.kind`` or ``.jumps``."""
    return {getattr(node, "name", "<module>") for node in ast.parse(source).body
            if any(isinstance(n, ast.Attribute) and n.attr in ("kind", "jumps") for n in ast.walk(node))}


def test_only_the_split_reads_the_integrator_s_structure():
    # the ladder learns f's atoms, sides and monotone rest from _split alone
    source = (ROOT / "src/stieltjes/quadrature.py").read_text(encoding="utf-8")
    assert structure_readers(source) <= {"_split", "_images"}


def test_checker_flags_a_structure_reader():
    src = (
        "def _split(f): return f.kind\n"
        "class L:\n"
        "    def m(self, f): return f.jumps\n"
        "def g(f): return f.fn\n"
        "K = make().kind\n"
    )
    assert structure_readers(src) == {"_split", "L", "<module>"}


def _callee(call):
    """The called name: ``f`` of both ``f(...)`` and ``m.f(...)``."""
    return call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)


def aitken_tail_calls(source: str) -> list:
    """Lines of ``source`` that call ``aitken_tail``, by bare name or as an attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and _callee(node) == "aitken_tail")


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "accel.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_only_accel_runs_the_extrapolation(path):
    # principal values and angular limits share accel.extrapolate, the one extrapolation loop
    assert aitken_tail_calls(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_aitken_tail_call():
    src = (
        "from .accel import aitken_tail, extrapolate\n"
        "from . import accel\n"
        "x = aitken_tail([1.0])\n"
        "def f(v):\n"
        "    return accel.aitken_tail(v)\n"
        "y = extrapolate(f, [1.0])\n"
        "tail = aitken_tail\n"
    )
    assert aitken_tail_calls(src) == [3, 5]
