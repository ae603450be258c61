"""``Assignment.undo`` puts back the counter lists its token holds: it walks
no child of the batch's nodes and folds no factor.  ``Assignment.assign``
folds the factors its schedule names and swaps the schedule's counter
lists in: the walk over the children and the list copies live only in the
schedule builder, which runs once per assigned set and batch order."""

from __future__ import annotations

import ast
from pathlib import Path

MODEL = Path(__file__).resolve().parent.parent / "src" / "nobn" / "model.py"


def _method(name: str) -> ast.FunctionDef:
    tree = ast.parse(MODEL.read_text(encoding="utf-8"), str(MODEL))
    cls = next(
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Assignment"
    )
    return next(
        node for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == name
    )


def _loads_and_calls(fn: ast.FunctionDef) -> tuple[set[str], set[str]]:
    loads, calls = set(), set()
    for node in ast.walk(fn):
        if isinstance(node, (ast.Attribute, ast.Name)) and isinstance(node.ctx, ast.Load):
            loads.add(node.attr if isinstance(node, ast.Attribute) else node.id)
        if isinstance(node, ast.Call):
            func = node.func
            calls.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return loads, calls


def _list_copies(fn: ast.FunctionDef) -> list[str]:
    """Slices, ``list(...)`` and ``.copy()`` calls anywhere in ``fn``."""
    found = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice):
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("list", "copy"):
                found.append(ast.unparse(node))
    return found


def test_undo_walks_no_children_and_folds_no_factor():
    loads, calls = _loads_and_calls(_method("undo"))
    assert "children" not in loads
    assert not calls & {"node_factor", "noisy_or_absent"}


def test_assign_walks_no_children_and_copies_no_list():
    loads, _ = _loads_and_calls(_method("assign"))
    assert "children" not in loads
    assert _list_copies(_method("assign")) == []
