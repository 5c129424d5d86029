"""Rules that the package source must keep."""

import ast
from pathlib import Path

import gridcodes

SOURCE = Path(__file__).resolve().parents[1] / "src" / "gridcodes"


def _trees():
    files = sorted(SOURCE.glob("*.py"))
    assert files, SOURCE
    return [(path, ast.parse(path.read_text(), str(path))) for path in files]


def test_no_library_asserts():
    # python -O strips assert statements, so no correctness check may be one.
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def _scoped(node, scope=None):
    """Every node under ``node`` with the name of its innermost function."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = child.name
        yield child, inner
        yield from _scoped(child, inner)


def test_budget_errors_come_from_the_gate():
    # Every budget check goes through errors.check_budget, so the rule and
    # its message live in one place.  Only the exact search's stop builds
    # its own BudgetError, as it carries proven bounds; exact_max_code
    # raises that same error again, with its lower bound raised.
    allowed = {("errors.py", "check_budget"), ("codes.py", "stop")}
    found = [
        f"{path.name}:{call.lineno}"
        for path, tree in _trees()
        for call, scope in _scoped(tree)
        if isinstance(call, ast.Call)
        and getattr(call.func, "id", getattr(call.func, "attr", None)) == "BudgetError"
        and (path.name, scope) not in allowed
    ]
    assert not found, found


def test_lower_bounds_come_from_the_gate():
    # Every integer input passes grid.integer, which owns the "must be >="
    # message.  The float time budget and Grid's side loop, whose message
    # names the coordinate, keep their own checks.
    allowed = {
        ("grid.py", "integer"),
        ("grid.py", "__post_init__"),
        ("codes.py", "exact_max_code"),
    }
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _trees()
        for node, scope in _scoped(tree)
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "DomainError"
        and any(
            isinstance(part, ast.Constant) and "must be >=" in str(part.value)
            for part in ast.walk(node.exc)
        )
        and (path.name, scope) not in allowed
    ]
    assert not found, found


def _imports_numpy(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.level == 0 and (node.module or "").split(".")[0] == "numpy"
    return False


def test_numpy_is_loaded_only_by_numpy_for():
    # Every scan asks grid.numpy_for whether its work pays for the import, so
    # importing gridcodes, closed forms and small scans never load numpy.
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _trees()
        for node, scope in _scoped(tree)
        if _imports_numpy(node) and (path.name, scope) != ("grid.py", "numpy_for")
    ]
    assert not found, found


def test_public_names_resolve():
    # A name dropped from the imports but left in __all__ breaks
    # ``from gridcodes import *``.
    names = gridcodes.__all__
    assert names == sorted(set(names))
    missing = [name for name in names if not hasattr(gridcodes, name)]
    assert not missing, missing
