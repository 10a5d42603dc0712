"""No module of the package imports a name at module level that it never
uses, no module defines a private module-level name that nothing in the
package references, every public name has a caller in the package or in
the benchmark, every defaulted parameter is set by some call there, and
every dataclass field is read there, unless an allowlist says why not.
Importing the CLI loads neither the lemma library nor scipy.optimize nor
scipy.sparse, and serial replicates take no fresh page faults without them.
An import kept on purpose carries a ``# noqa: F401`` comment, and is a name
that the benchmark's ``perfbench/cli.py install()`` wraps on that module."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "percolab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def module_imports(source: str):
    """(line, bound name, kept) of every module-level import other than
    ``__future__``; kept means the statement carries ``# noqa: F401``."""
    lines = source.splitlines()
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        kept = "noqa: F401" in "\n".join(lines[node.lineno - 1 : node.end_lineno])
        for alias in node.names:
            found.append((node.lineno, alias.asname or alias.name.split(".")[0], kept))
    return found


def unused_imports(source: str):
    imported = {name: line for line, name, kept in module_imports(source) if not kept}
    used = {n.id for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Name)}
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


def fresh_interpreter(probe: str) -> str:
    """Standard output of ``probe`` run by a new interpreter on ``src``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    return run.stdout.strip()


def test_importing_the_cli_loads_no_lemma_library_scipy_optimize_or_scipy_sparse():
    # only lemma-check needs the first two, and only classify and route
    # need scipy.sparse; every other command would pay for them
    modules = ("percolab.combinatorics", "scipy.optimize", "scipy.sparse")
    probe = f"import sys, percolab.harness; print([m for m in {modules} if m in sys.modules])"
    assert fresh_interpreter(probe) == "[]"


@pytest.mark.skipif(sys.platform != "linux", reason="glibc's mmap threshold")
def test_serial_upper_tail_replicates_take_no_fresh_page_faults():
    # the tail-d2 benchmark settings: sampling reuses its per-process scratch,
    # so replicates stay off fresh mmaps without scipy's import raising
    # glibc's mmap threshold
    probe = (
        "import resource, sys\n"
        "from percolab.estimators import upper_tail_vs_cutpoint_experiment as run\n"
        "def faults(replicates, seed):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    run(0.6, 2, 1.0, (12,), replicates, seed, s=0.1, mu1=1.55, workers=1)\n"
        "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
        "faults(50, 1)\n"
        "print(faults(200, 2) / 200, 'scipy.sparse' in sys.modules)\n"
    )
    per_replicate, sparse = fresh_interpreter(probe).split()
    assert sparse == "False"
    assert float(per_replicate) < 1


def wrapped_names(source: str) -> set:
    """(module, name) of every ``tracer.wrap(module, "name", ...)`` in the
    ``install`` function of ``source``; a loop over a literal tuple wraps
    each of its items."""
    (install,) = (
        node for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name == "install"
    )
    loops = {
        node.target.id: node.iter.elts for node in ast.walk(install)
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name)
        and isinstance(node.iter, ast.Tuple)
    }

    def values(arg):
        if isinstance(arg, ast.Name):
            if arg.id in loops:
                return [v for elt in loops[arg.id] for v in values(elt)]
            return [arg.id]
        if isinstance(arg, ast.Constant):
            return [arg.value]
        return []

    return {
        (owner, key)
        for node in ast.walk(install)
        if isinstance(node, ast.Call) and _callee(node.func) == "wrap"
        for owner in values(node.args[0]) for key in values(node.args[1])
    }


def kept_imports_not_wrapped(module: str, source: str, wrapped: set):
    """(line, name) of every ``# noqa: F401`` import of ``module`` that the
    benchmark does not wrap there: such an import is kept for nothing."""
    return [
        (line, name) for line, name, kept in module_imports(source)
        if kept and (module, name) not in wrapped
    ]


def test_kept_import_detector_reads_wraps_loops_and_noqa():
    bench = (
        "def install(tracer):\n"
        "    tracer.wrap(a, 'f', 'span')\n"
        "    for owner in (a, b):\n        tracer.wrap(owner, 'g', 'span')\n"
        "    for name in ('h', 'k'):\n        tracer.wrap(b, name, 'span')\n"
        "    tracer.wrap(a.Cls, 'm', 'span')\n"
        "def other(tracer):\n    tracer.wrap(c, 'z', 'span')\n"
    )
    wrapped = wrapped_names(bench)
    assert wrapped == {("a", "f"), ("a", "g"), ("b", "g"), ("b", "h"), ("b", "k")}
    source = (
        "import os\nfrom x import f  # noqa: F401\n"
        "from y import (g,\n    z)  # noqa: F401\nfrom w import h  # noqa: F401\n"
    )
    assert kept_imports_not_wrapped("b", source, wrapped) == [(2, "f"), (3, "z")]
    assert kept_imports_not_wrapped("c", source, wrapped) == [(2, "f"), (3, "g"), (3, "z"), (5, "h")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_kept_import_is_a_name_the_benchmark_wraps(path):
    wrapped = wrapped_names((ROOT / "perfbench" / "cli.py").read_text())
    assert kept_imports_not_wrapped(path.stem, path.read_text(), wrapped) == []


def references(source: str) -> set:
    """Every name that ``source`` reads, calls, imports or looks up as an
    attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def unreferenced_private_names(sources: dict):
    """(module, name) of every private module-level function, class or
    assignment that no module of ``sources`` reads, calls or imports."""
    referenced = set().union(*map(references, sources.values()))
    defined = []
    for module, source in sources.items():
        tree = ast.parse(source)
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


# public names without a caller yet, each kept for the open item that wires it in
PUBLIC_ALLOWLIST = {
    "apply_surgery": "certified configuration surgery will call it",
    "force_cutpoint": "certified configuration surgery will call it",
}


def public_names(module: str, source: str):
    """The exports of ``__init__.py``; elsewhere every public module-level
    function and class and, as ``Class.name``, every public method and
    property."""
    tree = ast.parse(source)
    if module == "__init__.py":
        return [
            alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names
        ]
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [
                f"{node.name}.{item.name}" for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            ]
    return names


def unreferenced_public_names(package: dict, callers: dict, allowed=()):
    """(module, name) of every public name of ``package`` that no module of
    ``package`` other than ``__init__.py``, and no module of ``callers``,
    reads, calls, imports or looks up as an attribute, unless ``allowed``."""
    passed = set(allowed).union(
        *(references(src) for m, src in package.items() if m != "__init__.py"),
        *map(references, callers.values()),
    )
    return sorted(
        (module, name)
        for module, source in package.items()
        for name in public_names(module, source)
        if name.rpartition(".")[2] not in passed
    )


def test_public_name_detector_sees_callers_and_the_allowlist():
    package = {
        "__init__.py": "from .a import used, dead, only_exported, kept\n",
        "a": "def used():\n    return Box().size()\n"
             "def dead():\n    pass\n"
             "def only_exported():\n    pass\n"
             "def kept():\n    pass\n"
             "class Box:\n    def size(self):\n        return 1\n"
             "    def dead_method(self):\n        return 2\n"
             "    def timed(self):\n        return 3\n"
             "    def _private(self):\n        return 4\n",
        "b": "from .a import used\n",
    }
    callers = {"bench.py": "import a\na.Box.timed\n"}
    assert unreferenced_public_names(package, callers, {"kept": "reason"}) == [
        ("__init__.py", "dead"),
        ("__init__.py", "only_exported"),
        ("a", "Box.dead_method"),
        ("a", "dead"),
        ("a", "only_exported"),
    ]


def test_every_public_name_has_a_caller_or_an_allowlisted_reason():
    package = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    callers = {p.name: p.read_text() for p in (ROOT / "perfbench").glob("*.py")}
    assert unreferenced_public_names(package, callers, PUBLIC_ALLOWLIST) == []
    # an allowlisted name that gains a caller leaves the allowlist
    uncalled = {name for _, name in unreferenced_public_names(package, callers)}
    assert uncalled == set(PUBLIC_ALLOWLIST)


# keyword options that no call sets yet, each kept for the open item that sets it
OPTION_ALLOWLIST = {
    ("estimate_rate_surface", "alpha"): "ROADMAP item 1 exposes alpha in the CLI",
}


def defaulted_parameters(source: str):
    """(callable, parameter, slot) of every parameter with a default of a
    module-level function or a method; a method's slots skip ``self`` (or
    ``cls``), ``__init__`` is called by its class name, and a keyword-only
    parameter has slot None."""
    found = []

    def visit(fn, name, bound):
        positional = (fn.args.posonlyargs + fn.args.args)[bound:]
        first = len(positional) - len(fn.args.defaults)
        found.extend((name, arg.arg, i) for i, arg in enumerate(positional) if i >= first)
        found.extend(
            (name, arg.arg, None)
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if default is not None
        )

    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            visit(node, node.name, 0)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                static = any(
                    isinstance(dec, ast.Name) and dec.id == "staticmethod"
                    for dec in item.decorator_list
                )
                name = node.name if item.name == "__init__" else item.name
                visit(item, name, 0 if static else 1)
    return found


def _callee(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def set_options(source: str) -> set:
    """(callable, keyword) and (callable, slot) of every argument that a
    call in ``source`` passes, directly or through ``partial(callable, ...)``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name, args = _callee(node.func), node.args
        if name == "partial" and args:
            name, args = _callee(args[0]), args[1:]
        found.update((name, i) for i in range(len(args)))
        found.update((name, kw.arg) for kw in node.keywords)
    return found


def unset_options(package: dict, callers: dict, allowed=()):
    """(module, callable, parameter) of every defaulted parameter in
    ``package`` that no call in a module of ``package`` other than
    ``__init__.py``, or in ``callers``, sets, unless ``allowed``."""
    passed = set().union(
        *(set_options(src) for m, src in package.items() if m != "__init__.py"),
        *map(set_options, callers.values()),
    )
    return sorted(
        (module, name, param)
        for module, source in package.items()
        for name, param, slot in defaulted_parameters(source)
        if (name, param) not in passed and (name, slot) not in passed
        and (name, param) not in allowed
    )


def test_keyword_option_detector_sees_keywords_slots_and_partial():
    package = {
        "__init__.py": "from .a import f\nf(1, dead=2)\n",
        "a": "from functools import partial\n"
             "def f(x, by_slot=1, dead=2, *, by_kw=3, unset=4):\n    pass\n"
             "def g(x, through_partial=1, kept=2):\n    pass\n"
             "class Box:\n"
             "    def __init__(self, side=1):\n        pass\n"
             "    def grow(self, by=1, only_self=2):\n        pass\n"
             "    @staticmethod\n    def make(first=1):\n        pass\n"
             "def h():\n    f(0, 1, by_kw=2)\n    partial(g, through_partial=3)\n"
             "    Box(2).grow(3)\n",
    }
    callers = {"bench.py": "import a\na.Box.make(1)\n"}
    assert unset_options(package, callers, {("g", "kept"): "reason"}) == [
        ("a", "f", "dead"),
        ("a", "f", "unset"),
        ("a", "grow", "only_self"),
    ]
    assert ("g", 0) in set_options("partial(g, 1)\n")


def test_every_keyword_option_has_a_package_caller():
    package = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    callers = {p.name: p.read_text() for p in (ROOT / "perfbench").glob("*.py")}
    assert unset_options(package, callers, OPTION_ALLOWLIST) == []
    # an allowlisted option that gains a caller leaves the allowlist
    unset = {(name, param) for _, name, param in unset_options(package, callers)}
    assert unset == set(OPTION_ALLOWLIST)


# record fields that no code reads yet, each kept for the open item that reads it
FIELD_ALLOWLIST = {
    "EventResult.witness": "ROADMAP items 5 and 9 read the witness",
}


def record_fields(source: str):
    """``Class.field`` of every annotated field of a dataclass."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef):
            continue
        if not any(
            _callee(dec.func if isinstance(dec, ast.Call) else dec) == "dataclass"
            for dec in node.decorator_list
        ):
            continue
        found += [
            f"{node.name}.{item.target.id}" for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        ]
    return found


def attribute_reads(source: str) -> set:
    """Every attribute name that ``source`` loads; a store, a delete and a
    keyword argument do not read."""
    return {
        node.attr for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def unread_fields(package: dict, callers: dict, allowed=()):
    """(module, Class.field) of every dataclass field of ``package`` that no
    module of ``package`` other than ``__init__.py``, and no module of
    ``callers``, reads as an attribute, unless ``allowed``."""
    read = set().union(
        *(attribute_reads(src) for m, src in package.items() if m != "__init__.py"),
        *map(attribute_reads, callers.values()),
    )
    return sorted(
        (module, field)
        for module, source in package.items()
        for field in record_fields(source)
        if field.rpartition(".")[2] not in read and field not in allowed
    )


def test_record_field_detector_sees_reads_and_the_allowlist():
    package = {
        "__init__.py": "from .a import Rec\nRec(1, 2, 3, 4, 5).exported\n",
        "a": "from dataclasses import dataclass\n"
             "@dataclass(frozen=True)\nclass Rec:\n"
             "    used: int\n    stored: int\n    exported: int\n"
             "    kept: int\n    timed: int = 0\n"
             "    def total(self):\n        return self.used\n"
             "@dataclass\nclass Other:\n    counter: int\n"
             "class Plain:\n    ignored: int\n"
             "def f(o, r):\n    o.counter += 1\n    r.stored = 2\n"
             "    return Rec(used=1, stored=2, exported=3, kept=4)\n",
    }
    callers = {"bench.py": "def g(r):\n    return r.timed\n"}
    assert unread_fields(package, callers, {"Rec.kept": "reason"}) == [
        ("a", "Other.counter"),
        ("a", "Rec.exported"),
        ("a", "Rec.stored"),
    ]


def test_every_record_field_has_a_reader():
    package = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    callers = {p.name: p.read_text() for p in (ROOT / "perfbench").glob("*.py")}
    assert unread_fields(package, callers, FIELD_ALLOWLIST) == []
    # an allowlisted field that gains a reader leaves the allowlist
    unread = {field for _, field in unread_fields(package, callers)}
    assert unread == set(FIELD_ALLOWLIST)
