"""Every name a module-level import binds in src/finesse is read in that
module, every defaulted parameter of a src/finesse function is passed by
some call in src/, tests/ or perfbench/, and importing finesse loads no
scipy.optimize."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "finesse"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
CALLERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


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
