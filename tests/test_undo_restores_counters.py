"""``Assignment.undo`` restores the counters its token copied: it walks no
child of the batch's nodes and folds no factor."""

from __future__ import annotations

import ast
from pathlib import Path

MODEL = Path(__file__).resolve().parent.parent / "src" / "nobn" / "model.py"


def _undo() -> ast.FunctionDef:
    tree = ast.parse(MODEL.read_text(encoding="utf-8"), str(MODEL))
    cls = next(
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Assignment"
    )
    return next(
        node for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "undo"
    )


def test_undo_walks_no_children_and_folds_no_factor():
    loads, calls = set(), set()
    for node in ast.walk(_undo()):
        if isinstance(node, (ast.Attribute, ast.Name)) and isinstance(node.ctx, ast.Load):
            loads.add(node.attr if isinstance(node, ast.Attribute) else node.id)
        if isinstance(node, ast.Call):
            func = node.func
            calls.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    assert "children" not in loads
    assert not calls & {"node_factor", "noisy_or_absent"}
