"""The runtime needs only the standard library: every module under
``src/dsfusion`` imports from the standard library or from dsfusion itself."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "dsfusion"
MODULES = sorted(PACKAGE_DIR.glob("*.py"))


def imported_top_levels(path: Path) -> set[str]:
    """Top-level names of the absolute imports in a module; relative ones are dsfusion."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_has_modules():
    assert len(MODULES) >= 6


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_stdlib_or_dsfusion(path):
    foreign = imported_top_levels(path) - set(sys.stdlib_module_names) - {"dsfusion"}
    assert not foreign, f"{path.name} imports non-stdlib modules {sorted(foreign)}"
