"""The package's public surface: every exported name is importable, and no
private module-level name is left without a use."""

import ast
from collections import Counter
from pathlib import Path

import raqdp

SRC = Path(raqdp.__file__).parent


def test_every_exported_name_resolves():
    assert [name for name in raqdp.__all__ if not hasattr(raqdp, name)] == []


def test_star_import_provides_every_exported_name():
    namespace: dict = {}
    exec("from raqdp import *", namespace)
    assert set(raqdp.__all__) <= set(namespace)


def _references(node: ast.AST) -> Counter:
    """Every name read under `node`: plain names, attribute names and the
    names of `from ... import` clauses."""
    out: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name] += 1
    return out


def _private_definitions(tree: ast.Module):
    """(statement, name) for every module-level `_name` a statement defines:
    a function, a class or an assigned constant."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names = [stmt.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield stmt, name


def test_every_private_module_name_is_used():
    # a helper that nothing calls: its only reference is its own definition
    # (a recursive function's calls to itself do not count)
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    unused = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for stmt, name in _private_definitions(tree)
        if total[name] == _references(stmt)[name]
    ]
    assert unused == []
