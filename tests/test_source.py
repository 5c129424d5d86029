"""Rules that the package source must keep."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "gridcodes"


def test_no_library_asserts():
    # python -O strips assert statements, so no correctness check may be one.
    files = sorted(SOURCE.glob("*.py"))
    assert files, SOURCE
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
