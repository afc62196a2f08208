"""Structural checks over the package's syntax trees.

Every library certificate must also fire under `python -O`, which strips
assert statements, so no module of the package may hold one, nor raise or
name AssertionError.  Every input must end in a result or a DomainError, so
every raise statement builds one of the classes that errors.py defines, and
every class there but DomainError is raised somewhere.
Every name a module imports is used in it, apart from the re-exports of
__init__.py and `from __future__ import annotations`.  Every module it imports
comes from the standard library, the package itself or a dependency that
pyproject.toml declares, so an import of a package that merely happens to be
installed fails here and not on another machine.  The same holds for the
test files, which may also import conftest and the `test` extra."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gamegraphs"
TESTS = ROOT / "tests"
MODULES = sorted(PACKAGE.glob("*.py"))
ERRORS = {node.name for node in ast.parse((PACKAGE / "errors.py").read_text()).body if isinstance(node, ast.ClassDef)}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_assert(path):
    tree = ast.parse(path.read_text(), str(path))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "AssertionError")
    ]
    assert found == [], f"{path.name}: assert or AssertionError on lines {found}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_raises_domain_errors(path):
    tree = ast.parse(path.read_text(), str(path))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and not (isinstance(node.exc, ast.Call) and isinstance(node.exc.func, ast.Name) and node.exc.func.id in ERRORS)
    ]
    assert found == [], f"{path.name}: a raise on lines {found} builds no class of errors.py"


@pytest.mark.parametrize("path", [m for m in MODULES if m.name != "__init__.py"], ids=lambda path: path.name)
def test_imports_are_used(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {
        alias.asname or alias.name.split(".")[0]: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert unused == [], f"{path.name}: imported and never used: {unused}"


def test_every_error_class_is_raised():
    raised = {
        node.exc.func.id
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and isinstance(node.exc.func, ast.Name)
    }
    assert sorted(ERRORS - raised - {"DomainError"}) == []


def _declared_dependencies(*extras: str) -> set:
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    deps = project["dependencies"] + [dep for extra in extras for dep in project["optional-dependencies"][extra]]
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_") for dep in deps}


@pytest.mark.parametrize("path", MODULES + sorted(TESTS.glob("*.py")), ids=lambda path: path.name)
def test_imports_are_declared(path):
    allowed = set(sys.stdlib_module_names) | {PACKAGE.name} | _declared_dependencies()
    if path.parent == TESTS:
        allowed |= {"conftest"} | _declared_dependencies("test")
    tree = ast.parse(path.read_text(), str(path))
    tops = {
        (alias.name if isinstance(node, ast.Import) else node.module).split(".")[0]: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.level == 0)
        for alias in node.names
    }
    undeclared = sorted((line, name) for name, line in tops.items() if name not in allowed)
    assert undeclared == [], f"{path.name}: imports neither stdlib nor declared: {undeclared}"
