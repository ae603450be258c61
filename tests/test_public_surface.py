"""Every name the package exports is used by the package or its benchmark.

A function that only tests call belongs with the tests (``reference.py``
holds their noisy-OR arithmetic), not in ``src/``.  Exports are the names
``nobn/__init__.py`` imports and the ``__all__`` of every module.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nobn"

# Reference implementations the tests compare the search against; nothing in
# the package or the benchmark calls them.
REFERENCES = {"instantiations_above", "enumerate_consistent"}


def _exported() -> set[str]:
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            if path.name == "__init__.py" and isinstance(node, ast.ImportFrom):
                names.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                names.update(ast.literal_eval(node.value))
    return names


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
