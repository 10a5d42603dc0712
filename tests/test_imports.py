"""No module of the package imports a name at module level that it never
uses, and no module defines a private module-level name that nothing in the
package references. An import kept on purpose carries a ``# noqa: F401``
comment."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "percolab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        text = "\n".join(lines[node.lineno - 1 : node.end_lineno])
        if "noqa: F401" in text:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            imported[bound] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detector_finds_unused_and_honours_noqa():
    src = (
        "from __future__ import annotations\n"
        "import os\nimport numpy as np\nfrom a.b import (c,\n    d)\n"
        "from e import f  # noqa: F401\n"
        "def g(x: d) -> None:\n    return np.zeros(x)\n"
    )
    assert unused_imports(src) == [(2, "os"), (4, "c")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_private_names(sources: dict):
    """(module, name) of every private module-level function, class or
    assignment that no module of ``sources`` reads, calls or imports."""
    referenced, defined = set(), []
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, n) for n in names if n.startswith("_") and not n.startswith("__")]
    return sorted((m, n) for m, n in defined if n not in referenced)


def test_dead_helper_detector_sees_calls_reads_and_imports():
    sources = {
        "a": "_K = 1\n_DEAD: int = 2\ndef _used():\n    return _K\n"
             "def _dead():\n    _dead_local = 3\nclass _Imported:\n    pass\n"
             "def f(m):\n    return _used(), m._attr\n_attr = 4\n",
        "b": "from a import _Imported\n",
    }
    assert unreferenced_private_names(sources) == [("a", "_DEAD"), ("a", "_dead")]


def test_no_unreferenced_private_module_level_names():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unreferenced_private_names(sources) == []
