"""Every name a module-level import binds in src/finesse is read in that
module, no module imports another's private name, every defaulted parameter
of a src/finesse function is passed by some call in src/, tests/ or
perfbench/, every function and method is read in src/ or perfbench/ or
declared in `finesse.__all__`, only the one reader of each outside format
reads a file, only `finesse.checks` decides what a number is or seeds a
stream, only the verification policy reads what it decides by, and importing
finesse loads no scipy.optimize."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import finesse

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "finesse"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
CALLERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
# Library code outside the declaration, and the benchmark that drives it:
# a test alone does not keep a function alive.
READERS = MODULES + sorted((ROOT / "perfbench").rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module body's import statements (``from __future__``
    excepted) that no expression in the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys as system\nfrom math import inf, pi\n"
    assert unused_imports(source + "print(system.argv, inf)\n") == ["os", "pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def private_imports(source: str) -> list[str]:
    """Names starting with one underscore that a relative import takes from
    another module of the package."""
    return [a.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level
            for a in node.names if a.name.startswith("_") and not a.name.startswith("__")]


def test_the_check_sees_a_private_import():
    source = "from .m import _x, y\nfrom . import gates\nfrom .n import __version__\nfrom os import _exit\n"
    assert private_imports(source) == ["_x"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_private_name(path):
    assert private_imports(path.read_text()) == []


def defaulted_parameters(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(callee name, parameter, index among the positional arguments of a
    call, or None for keyword-only) of every parameter with a default.  A
    method's index skips ``self``; ``__init__`` is called by its class name."""
    out = []

    def visit(body, cls=None):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                skip = 1 if cls and not static else 0
                name = cls if cls and node.name == "__init__" else node.name
                first = len(positional) - len(args.defaults)
                out.extend((name, p.arg, i - skip) for i, p in enumerate(positional) if i >= first)
                out.extend((name, p.arg, None)
                           for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
                visit(node.body)

    visit(tree.body)
    return out


def unset_defaults(sources: list[str], callers: list[str]) -> list[tuple[str, str]]:
    """(callee, parameter) of each defaulted parameter in ``sources`` that no
    call in ``callers`` passes, by position or keyword.  Calls match by the
    callee's name (``f(...)`` or ``x.f(...)``); one with ``*`` or ``**``
    passes every parameter."""
    calls = {}  # name -> [most positional arguments, keywords, unpacks]
    for text in callers:
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            keywords = {k.arg for k in node.keywords}
            seen = calls.setdefault(name, [0, set(), False])
            seen[0] = max(seen[0], len(node.args))
            seen[1] |= keywords
            seen[2] |= None in keywords or any(isinstance(a, ast.Starred) for a in node.args)
    unset = []
    for text in sources:
        for name, param, index in defaulted_parameters(ast.parse(text)):
            most, keywords, unpacks = calls.get(name, (0, set(), False))
            if not (unpacks or param in keywords or (index is not None and index < most)):
                unset.append((name, param))
    return unset


def test_the_check_sees_an_unset_default():
    source = """
def f(a, b=1, *, c=2, d=3): ...
def g(a=1): ...
class K:
    def __init__(self, x, y=0): ...
    def m(self, z=0): ...
"""
    callers = "f(0, 1, d=4)\nK(0)\nk.m(1)\ng(*args)\n"
    assert unset_defaults([source], [source, callers]) == [("f", "c"), ("K", "y")]


def test_every_default_is_passed_by_some_call():
    callers = [p.read_text() for p in CALLERS]
    assert unset_defaults([p.read_text() for p in MODULES], callers) == []


def function_nodes(tree: ast.Module):
    """(class name or None, node) of every function and method a module
    defines at its top level or in a top-level class."""
    for node in tree.body:
        body, cls = (node.body, node.name) if isinstance(node, ast.ClassDef) else ([node], None)
        yield from ((cls, f) for f in body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)))


def defined_functions(tree: ast.Module) -> list[tuple[str | None, str]]:
    """(class name or None, name) of every function and method a module
    defines at its top level or in a top-level class, dunders excepted."""
    return [(cls, f.name) for cls, f in function_nodes(tree)
            if not (f.name.startswith("__") and f.name.endswith("__"))]


def read_names(readers: list[str]) -> tuple[set[str], set[str]]:
    """The bare names that ``readers`` load or import, and the attribute
    names they read or call."""
    names, attributes = set(), set()
    for text in readers:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(a.name for a in node.names)
    return names, attributes


def uncalled(sources: dict[str, str], readers: list[str], exported) -> list[str]:
    """``module.name`` or ``module.Class.name`` of each function or method in
    ``sources`` (module name -> text) that no reader names, unless it is a
    function listed in ``exported``.  A function is named by a bare name, an
    import or an attribute (``module.f``); a method only by an attribute, so a
    local variable of the same name does not keep it."""
    names, attributes = read_names(readers)
    out = []
    for module, text in sources.items():
        for cls, name in defined_functions(ast.parse(text)):
            if name in attributes or (cls is None and (name in names or name in exported)):
                continue
            out.append(".".join(filter(None, (module, cls, name))))
    return out


def test_the_check_sees_an_uncalled_function_and_method():
    source = """
def used(): ...
def unused(): ...
def declared(): ...
def local(): ...
class K:
    def called(self): ...
    def unread(self): ...
    def local(self): ...
    def __repr__(self): ...
"""
    readers = [source, "used()\nk.called()\ndef f(local):\n    return local\n"]
    assert uncalled({"m": source}, readers, {"declared", "K"}) == ["m.unused", "m.K.unread", "m.K.local"]


def test_every_function_is_read_or_declared():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert uncalled(sources, [p.read_text() for p in READERS], set(finesse.__all__)) == []


def test_every_declared_name_resolves_and_an_unread_one_says_why():
    """Each name in `finesse.__all__` is a package attribute, and each that no
    code in src/ or perfbench/ reads carries a reason on its line."""
    names, attributes = read_names([p.read_text() for p in READERS])
    lines = (SRC / "__init__.py").read_text().splitlines()
    for name in finesse.__all__:
        assert hasattr(finesse, name), name
        if name not in names | attributes:
            assert any(re.fullmatch(rf'\s*"{name}",\s*#.+', line) for line in lines), name


# The one reader of each outside format: JSON fixtures and configs, and QASM.
FILE_READERS = ["hardware.load_json", "qasm.load_qasm"]


def file_readers(sources: dict[str, str]) -> list[str]:
    """``module.name`` or ``module.Class.name`` of each function or method in
    ``sources`` (module name -> text) whose body calls ``open``,
    ``read_text`` or ``read_bytes``, by bare name or as an attribute."""
    return [".".join(filter(None, (module, cls, f.name)))
            for module, text in sources.items()
            for cls, f in function_nodes(ast.parse(text))
            if any(isinstance(c, ast.Call)
                   and (getattr(c.func, "id", None) or getattr(c.func, "attr", None))
                   in ("open", "read_text", "read_bytes")
                   for c in ast.walk(f))]


def test_the_check_sees_a_file_reader():
    source = """
def load(p):
    return p.read_text()
def raw(p):
    with open(p) as f:
        return f
def write(p):
    p.write_text("x")
class K:
    def __init__(self, p):
        self.raw = open(p)
    def blob(self, p):
        def inner():
            return p.read_bytes()
        return inner
"""
    assert file_readers({"m": source}) == ["m.load", "m.raw", "m.K.__init__", "m.K.blob"]


def test_only_the_format_readers_read_files():
    assert file_readers({p.stem: p.read_text() for p in MODULES}) == FILE_READERS


def test_no_module_loads_scipy_optimize():
    """scipy.optimize takes about 0.2 s to import and only the tests use it,
    as an oracle; a fresh interpreter imports finesse and every submodule."""
    code = (
        "import importlib, pkgutil, sys, finesse\n"
        "for m in pkgutil.iter_modules(finesse.__path__):\n"
        "    importlib.import_module('finesse.' + m.name)\n"
        "print(sorted(name for name in sys.modules if name.startswith('scipy.optimize')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


# The one module that decides what an integer or a real is at the API, and
# how a seeded stream is built.
NUMBER_RULES = "checks.py"


def number_rule_copies(source: str) -> list[tuple[int, str]]:
    """(line, what) of each place in ``source`` that decides for itself what
    a number is or how a stream is seeded: an import of ``numbers``,
    ``isinstance(_, bool)`` (bool alone or in a tuple), ``type(_) is int`` or
    ``is not int``, and any use of the name ``SeedSequence``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names) \
                or isinstance(node, ast.ImportFrom) and node.module == "numbers":
            found.append((node.lineno, "imports numbers"))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" \
                and len(node.args) == 2 and any(getattr(n, "id", None) == "bool" for n in ast.walk(node.args[1])):
            found.append((node.lineno, "isinstance(_, bool)"))
        elif isinstance(node, ast.Compare) and isinstance(node.left, ast.Call) \
                and getattr(node.left.func, "id", None) == "type" \
                and any(isinstance(op, (ast.Is, ast.IsNot)) and getattr(c, "id", None) == "int"
                        for op, c in zip(node.ops, node.comparators)):
            found.append((node.lineno, "type(_) is int"))
        elif "SeedSequence" in (getattr(node, "id", None), getattr(node, "attr", None)):
            found.append((node.lineno, "SeedSequence"))
    return sorted(found)


def test_the_check_sees_a_number_rule_copy():
    source = """
import numbers, os
from numbers import Integral
def f(x, rng):
    if isinstance(x, bool) or isinstance(x, (int, np.bool_, bool)):
        return type(x) is int or type(x) is not int
    isinstance(x, int), type(x) is float, x is int, dtype(bool)
    return np.random.SeedSequence(0), SeedSequence
"""
    assert number_rule_copies(source) == [
        (2, "imports numbers"), (3, "imports numbers"), (5, "isinstance(_, bool)"), (5, "isinstance(_, bool)"),
        (6, "type(_) is int"), (6, "type(_) is int"), (8, "SeedSequence"), (8, "SeedSequence"),
    ]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != NUMBER_RULES], ids=lambda p: p.name)
def test_only_the_number_rules_decide_what_a_number_is(path):
    """Every other module calls `checks.integer`, `checks.real` and
    `checks.seeded_stream` rather than keep its own copy of one."""
    assert number_rule_copies(path.read_text()) == []


# What the verification policy decides by, and who may read it: the checks'
# own code in verifier.py and the one policy function.
POLICY_INPUTS = {"is_clifford", "STATEVECTOR_WIDTH_LIMIT", "UNITARY_WIDTH_LIMIT"}
POLICY = "bench.check_equivalence"


def policy_readers(sources: dict[str, str]) -> list[str]:
    """``module.name`` or ``module.Class.name`` of each function or method in
    ``sources`` (module name -> text) that reads a name of POLICY_INPUTS,
    bare or as an attribute."""
    return [".".join(filter(None, (module, cls, f.name)))
            for module, text in sources.items()
            for cls, f in function_nodes(ast.parse(text))
            if any(isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id in POLICY_INPUTS
                   or isinstance(n, ast.Attribute) and n.attr in POLICY_INPUTS for n in ast.walk(f))]


def test_the_check_sees_a_policy_reader():
    source = """
from .verifier import UNITARY_WIDTH_LIMIT
LIMIT = UNITARY_WIDTH_LIMIT
def pick(ref):
    return is_clifford(ref)
def wide(n):
    return n > verifier.STATEVECTOR_WIDTH_LIMIT
def narrow(n):
    return n <= LIMIT
class K:
    def fits(self, n):
        def inner():
            return n <= UNITARY_WIDTH_LIMIT
        return inner
def is_clifford(dag):
    return all(dag)
"""
    assert policy_readers({"m": source}) == ["m.pick", "m.wide", "m.K.fits"]


def test_only_the_policy_reads_its_inputs():
    """`bench.check_equivalence` alone picks the checks a route gets;
    verifier.py's checks read their own width limits."""
    readers = policy_readers({p.stem: p.read_text() for p in MODULES})
    assert [r for r in readers if not r.startswith("verifier.")] == [POLICY]
