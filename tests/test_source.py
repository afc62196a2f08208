"""Every library certificate must also fire under `python -O`, which strips
assert statements, so no module of the package may hold one, nor raise or
name AssertionError."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gamegraphs"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_assert(path):
    tree = ast.parse(path.read_text(), str(path))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "AssertionError")
    ]
    assert found == [], f"{path.name}: assert or AssertionError on lines {found}"
