"""Every top-level import of the package, the scripts and the demos is used,
and every private top-level name of the package is read by the package.

No linter is part of the test environment, so these checks walk the syntax
tree with the standard library's ast module. An import counts as used when
the module reads it anywhere, in an annotation (a string annotation
included) or lists it in __all__. A private name counts as read when the
package names it outside its own definition: tests alone do not keep a
helper alive.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    path for folder in ("src/tskfuzzy", "scripts", "demos") for path in (ROOT / folder).rglob("*.py")
)
PACKAGE = sorted((ROOT / "src" / "tskfuzzy").rglob("*.py"))


def imported_names(tree: ast.Module) -> dict:
    """{bound name: line} of the module body's import statements."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set:
    """Names the module reads, names in its string annotations, and the
    entries of its __all__."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            for part in ast.walk(annotation) if annotation is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= used_names(ast.parse(part.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted((line, name) for name, line in imported_names(tree).items() if name not in used)


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_what_it_should():
    """It flags an unused import, however bound, and passes one read in
    code, in an annotation, in a string annotation or through __all__."""
    source = """
from __future__ import annotations
import os, os.path as osp
import numpy as np
import a.b
from x import y as z, w
from typing import TYPE_CHECKING
from m import Ann, StrAnn, Exported, Unused
__all__ = ["Exported"]
def f(p: Ann) -> "list[StrAnn]":
    return np.zeros(1), a.b.c, w
"""
    assert unused_imports(source) == [
        (3, "os"), (3, "osp"), (6, "z"), (7, "TYPE_CHECKING"), (8, "Unused")
    ]
    assert FILES and all(path.suffix == ".py" for path in FILES)


def private_definitions(tree: ast.Module) -> dict:
    """{name: top-level statement} of the module body's functions, classes
    and assigned constants whose names start with one underscore."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        found.update((name, node) for name in names if name[:1] == "_" and name[1:2] != "_")
    return found


def read_names(node: ast.AST) -> set:
    """Names read under node by a Name or an Attribute, or imported by an
    ImportFrom; a mention in a string does not count."""
    names = set()
    for part in ast.walk(node):
        if isinstance(part, ast.Name) and not isinstance(part.ctx, ast.Store):
            names.add(part.id)
        elif isinstance(part, ast.Attribute):
            names.add(part.attr)
        elif isinstance(part, ast.ImportFrom):
            names.update(alias.name for alias in part.names)
    return names


def unused_private_names(sources: dict) -> list:
    """(module, name) of each private top-level name of the modules, given
    as {module: source}, that no top-level statement of any of them reads
    but the one that defines it."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = [(node, read_names(node)) for tree in trees.values() for node in tree.body]
    return sorted(
        (module, name)
        for module, tree in trees.items()
        for name, where in private_definitions(tree).items()
        if not any(name in names for node, names in reads if node is not where)
    )


def test_no_private_name_only_tests_read():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unused_private_names(sources) == []


def test_the_private_check_sees_what_it_should():
    """It flags a private def read only by itself or by a string, and a
    private constant nothing reads; it passes names read in another
    statement, through an attribute or by an import, and skips dunders and
    public names."""
    a = """
_FLOOR, _UNUSED = 1.0, 2.0
__all__ = ["public"]
def _helper():
    return _FLOOR
def _recursive(n):
    return _recursive(n - 1)
def _unused():
    "_unused is named here, in a string"
class _Kept:
    pass
def public():
    return _helper()
"""
    b = """
from a import _Kept
import a
def _attr():
    return a._Kept
x = a._attr
"""
    assert unused_private_names({"a": a, "b": b}) == [
        ("a", "_UNUSED"), ("a", "_recursive"), ("a", "_unused")
    ]
    assert PACKAGE and all(path.suffix == ".py" for path in PACKAGE)
