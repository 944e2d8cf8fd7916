"""microdp needs nothing at run time beyond numpy and the standard library.

Every absolute import of every module under src/microdp must name numpy
or a standard-library module; relative imports stay inside the package.
Modules import only each other's public names, so a `_`-prefixed name
stays private to the module that defines it.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "microdp"
ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy"}


def absolute_imports(path: Path) -> list[tuple[int, str]]:
    """`(line, top-level module)` of every absolute import in `path`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def private_imports(path: Path) -> list[tuple[int, str]]:
    """`(line, name)` of every `_`-prefixed name `path` imports from microdp."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or node.module.split(".")[0] == "microdp"):
            found += [(node.lineno, alias.name) for alias in node.names if alias.name.startswith("_")]
    return found


MODULES = sorted(PACKAGE.glob("*.py"))


def test_package_has_modules():
    assert len(MODULES) > 1


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_are_numpy_or_stdlib(path):
    outside = [f"line {line}: {name}" for line, name in absolute_imports(path) if name not in ALLOWED]
    assert not outside, f"{path.name} imports beyond numpy and the standard library: {outside}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_only_public_microdp_names(path):
    private = [f"line {line}: {name}" for line, name in private_imports(path)]
    assert not private, f"{path.name} imports private names of other microdp modules: {private}"
