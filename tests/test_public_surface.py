"""Every name the package exports is used by the package or its benchmark.

A function that only tests call belongs with the tests (``reference.py``
holds their noisy-OR arithmetic), not in ``src/``.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nobn"

# Reference implementations the tests compare the search against; nothing in
# the package or the benchmark calls them.
REFERENCES = {"upper_bound", "instantiations_above", "enumerate_consistent"}


def _exported() -> set[str]:
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _referenced() -> set[str]:
    """Every name loaded or attribute read in the package's modules and the
    benchmark's (its tests excluded); definitions and imports do not count."""
    paths = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    paths += [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_is_used_outside_the_tests():
    exported = _exported()
    assert REFERENCES <= exported
    assert sorted(exported - REFERENCES - _referenced()) == []
