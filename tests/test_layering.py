"""Static layering rules of the package, read from its source with ast."""

import ast
from pathlib import Path

import pytest

import thetalab

PACKAGE = Path(thetalab.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
CONSTRUCTORS = {"count", "numeric", "series"}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_import_inside_a_function(path):
    found = [
        f"{fn.name}:{node.lineno}"
        for fn in ast.walk(parse(path))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not found, f"{path.name}: imports inside {found}"


def test_package_root_imports_nothing():
    tree = parse(PACKAGE / "__init__.py")
    assert not [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]


def test_records_are_built_only_by_the_three_constructors():
    callers = []
    for path in SOURCES:
        tree = parse(path)
        inside = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "IdentityRecord"
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.name in CONSTRUCTORS
            for node in ast.walk(fn)
        }
        callers += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "IdentityRecord"
            and id(node) not in inside
        ]
    assert not callers, f"IdentityRecord(...) called outside its constructors: {callers}"
