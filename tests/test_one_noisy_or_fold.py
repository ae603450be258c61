"""The noisy-OR fold of a node's factor is written out once, in the model."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nobn"


def _leak_c_readers(path: Path) -> set[str]:
    """``module.function`` of each function that loads ``Network._leak_c``."""
    found = set()

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "_leak_c"
            and isinstance(node.ctx, ast.Load)
        ):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), path.stem)
    return found


def test_only_noisy_or_absent_and_the_explanation_bound_read_the_leak():
    # every other factor is folded by noisy_or_absent or node_factor;
    # _explanation's plain multiplies every link's 1-q, a bound, not a fold
    # over states
    files = sorted(SRC.glob("*.py"))
    assert files
    readers = set().union(*(_leak_c_readers(path) for path in files))
    assert readers == {"model.noisy_or_absent", "epsilonml._explanation"}
