"""Package layout rules that keep module boundaries honest."""

from __future__ import annotations

import ast
from pathlib import Path

import sng

PACKAGE_DIR = Path(sng.__file__).parent


def _private_imports(path: Path) -> list[str]:
    """Underscore-prefixed names that ``path`` imports from another sng module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "sng":
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                found.append(f"{path.name}:{node.lineno} imports {alias.name}")
    return found


def test_no_module_imports_private_names_of_another():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    offenders = [hit for path in sources for hit in _private_imports(path)]
    assert offenders == []
