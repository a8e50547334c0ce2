"""Every name a module of the package imports is used in that module.

A helper that loses its last caller often leaves its import behind; this
guard reads each module's syntax tree (stdlib ``ast`` only) and names the
imports no expression refers to.  A name read inside a function that binds
the same name itself (an argument, an assignment, a loop variable) reads
that local, not the import.  A name listed in ``__all__`` counts as used:
the package's ``__init__`` imports its public names to re-export them.
"""

import ast
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sgrank"
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _bound_names(nodes) -> set:
    """The names that import statements or stores among ``nodes`` bind, not
    counting those of nested functions and classes, whose own names count."""
    names = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _locals(func) -> set:
    """The names a function or lambda binds itself."""
    args = func.args
    params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    body = [func.body] if isinstance(func, ast.Lambda) else func.body
    declared = {name for node in body for sub in ast.walk(node)
                if isinstance(sub, (ast.Global, ast.Nonlocal)) for name in sub.names}
    return ({a.arg for a in params if a is not None} | _bound_names(body)) - declared


def _unused_imports(source: str) -> list:
    """The names that ``source`` imports at module level and never uses, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            # ``import a.b`` binds a
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = set()
    stack = [(tree, frozenset())]   # (node, the names local to its enclosing functions)
    while stack:
        node, shadowed = stack.pop()
        if isinstance(node, _FUNCTIONS):
            shadowed = shadowed | _locals(node)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in shadowed:
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
        stack.extend((child, shadowed) for child in ast.iter_child_nodes(node))
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_what_it_uses(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_guard_names_a_leftover():
    # field is read only where a local of that name hides the import, and
    # Fn, _min_hitting_set_size and sys nowhere; os, dataclass, partial and
    # exported are used
    source = """
from __future__ import annotations
import os.path
from dataclasses import dataclass, field
from functools import partial
from typing import Callable as Fn
from .groebner import _min_hitting_set_size
from .rank import exported
__all__ = ["exported"]

@dataclass
class Stats:
    size: int = len(os.path.sep)

def pack(field):
    import sys
    return [field for _ in range(2)], lambda p: partial(p, field)
"""
    assert _unused_imports(source) == ["Fn", "_min_hitting_set_size", "field"]
