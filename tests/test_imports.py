"""Every top-level import of the package, the scripts and the demos is used.

No linter is part of the test environment, so this check walks the syntax
tree with the standard library's ast module. A name counts as used when the
module reads it anywhere, in an annotation (a string annotation included) or
lists it in __all__.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    path for folder in ("src/tskfuzzy", "scripts", "demos") for path in (ROOT / folder).rglob("*.py")
)


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
