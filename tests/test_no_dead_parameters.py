"""Every parameter of a library function has an effect, and every
private helper has a caller in the library.

A parameter that its function never reads is a flag with no effect:
callers pass it, and nothing changes.  This parses every module of the
package with ast and lists each function parameter (other than self and
cls) that its body, nested functions included, never loads, or loads
only to pass on to parameters that are themselves dead.

A private function, method or class that the package loads only inside
its own definition survives because tests call it: it belongs in the
tests' oracles, or nowhere.

The package declares numpy as its one dependency, so it imports nothing
else outside the standard library; scipy serves the tests alone.
"""

import ast
import sys
from pathlib import Path

import coarsetowers

PACKAGE = Path(coarsetowers.__file__).parent


def _parameters(fn: ast.AST) -> list[str]:
    a = fn.args
    names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
    names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
    return [n for n in names if n not in ("self", "cls")]


def _slot_name(fn: ast.AST, slot, method_call: bool):
    """The parameter of fn that a call argument binds: slot is a keyword
    name, or a positional index counted past self/cls on a method call."""
    if isinstance(slot, str):
        return slot
    positional = [p.arg for p in fn.args.posonlyargs + fn.args.args]
    if method_call and positional[:1] in (["self"], ["cls"]):
        slot += 1
    return positional[slot] if slot < len(positional) else None


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def dead_parameters() -> list[str]:
    trees = _trees()
    functions = [(module, fn) for module, tree in trees.items()
                 for fn in ast.walk(tree)
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
    by_name: dict = {}
    for _, fn in functions:
        by_name.setdefault(fn.name, []).append(fn)
    # each call argument -> (callee name, slot, called as a method)
    passed = {}
    for tree in trees.values():
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                func = call.func
                callee = getattr(func, "id", getattr(func, "attr", None))
                method = isinstance(func, ast.Attribute)
                for i, arg in enumerate(call.args):
                    passed[id(arg)] = (callee, i, method)
                for kw in call.keywords:
                    passed[id(kw.value)] = (callee, kw.arg, method)

    dead: set = set()

    def feeds_only_dead(fn: ast.AST, name: str) -> bool:
        loads = [node for stmt in fn.body for node in ast.walk(stmt)
                 if isinstance(node, ast.Name) and node.id == name
                 and isinstance(node.ctx, ast.Load)]
        for node in loads:
            callee, slot, method = passed.get(id(node), (None, None, False))
            defs = by_name.get(callee, [])
            if not defs or any((id(d), _slot_name(d, slot, method)) not in dead
                               for d in defs):
                return False
        return True

    grew = True
    while grew:
        grew = False
        for _, fn in functions:
            for name in _parameters(fn):
                if (id(fn), name) not in dead and feeds_only_dead(fn, name):
                    dead.add((id(fn), name))
                    grew = True
    return sorted(f"{module}.{fn.name}({name})" for module, fn in functions
                  for name in _parameters(fn) if (id(fn), name) in dead)


def test_every_parameter_has_an_effect():
    assert dead_parameters() == []


def uncalled_private_names() -> list[str]:
    """Private (single-underscore) functions, methods and classes of the
    package whose name the package never loads, as a name or an
    attribute, outside their own definition."""
    trees = _trees()
    loads: dict = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.setdefault(node.attr, []).append(node)
    uncalled = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and node.name.startswith("_") and not node.name.startswith("__"):
                inside = set(map(id, ast.walk(node)))
                if all(id(use) in inside for use in loads.get(node.name, ())):
                    uncalled.append(f"{module}.{node.name}")
    return sorted(uncalled)


def test_every_private_helper_has_a_library_caller():
    assert uncalled_private_names() == []


def test_the_package_imports_only_the_standard_library_and_numpy():
    imported = set()
    for tree in _trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) == {"numpy"}
