"""The runtime needs only the standard library: every module under
``src/dsfusion`` imports from the standard library or from dsfusion itself.
No module imports a private name of a sibling module."""

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


ALLOWED_PRIVATE_IMPORTS: set[tuple[str, str, str]] = set()


def private_sibling_imports(path: Path) -> set[tuple[str, str, str]]:
    """(module file, sibling, name) of every underscore name a module imports from dsfusion."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        parts = (node.module or "").split(".")
        if node.level == 0 and parts[0] != "dsfusion":
            continue
        # A relative import names the sibling as written; an absolute one after "dsfusion.".
        sibling = ".".join(parts[1:] if node.level == 0 else parts)
        found.update(
            (path.name, sibling, alias.name) for alias in node.names if alias.name.startswith("_")
        )
    return found


def test_package_has_modules():
    assert len(MODULES) >= 6


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_stdlib_or_dsfusion(path):
    foreign = imported_top_levels(path) - set(sys.stdlib_module_names) - {"dsfusion"}
    assert not foreign, f"{path.name} imports non-stdlib modules {sorted(foreign)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_no_private_name_of_a_sibling(path):
    private = private_sibling_imports(path) - ALLOWED_PRIVATE_IMPORTS
    assert not private, f"{path.name} imports private names of sibling modules: {sorted(private)}"


def test_private_import_check_sees_relative_and_absolute_imports(tmp_path):
    module = tmp_path / "example.py"
    module.write_text(
        "from __future__ import annotations\n"
        "from ._private import _hidden\n"
        "from .evidence import Frame, _refuse_total_conflict\n"
        "from dsfusion.bpa import _nearest_class\n"
        "from . import _module\n"
    )
    assert private_sibling_imports(module) == {
        ("example.py", "_private", "_hidden"),
        ("example.py", "evidence", "_refuse_total_conflict"),
        ("example.py", "bpa", "_nearest_class"),
        ("example.py", "", "_module"),
    }
