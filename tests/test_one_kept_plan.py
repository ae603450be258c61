"""Every level subproblem gets its plan one way: ``epsilonml._pose``."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nobn"


def _uses(path: Path) -> tuple[set[str], set[str]]:
    """``module.function`` of each function that calls ``_plan``, and of
    each that loads an ``_assigned`` attribute."""
    calls, reads = set(), set()

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "_plan":
                calls.add(scope)
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "_assigned"
            and isinstance(node.ctx, ast.Load)
        ):
            reads.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), path.stem)
    return calls, reads


def test_only_pose_builds_a_plan_or_reads_the_assigned_nodes():
    # build_subproblem and iter_level_extensions both take their plan from
    # _pose, which keeps it under the assigned nodes
    files = sorted(SRC.glob("*.py"))
    assert files
    calls, reads = set(), set()
    for path in files:
        c, r = _uses(path)
        calls |= c
        if path.stem != "model":
            reads |= r
    assert calls == {"epsilonml._pose"}
    assert reads == {"epsilonml._pose"}
