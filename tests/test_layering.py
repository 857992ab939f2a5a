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


def test_sample_points_are_drawn_only_by_the_sample_stream():
    # every sampled check reads theta.sample_blocks; the transform suite
    # draws its own box [0.05, 0.65] + [0.02, 0.27] tau
    allowed = {
        ("theta.py", "sample_blocks", "Random"),
        ("theta.py", "sample_blocks", "sample_points"),
        ("cli.py", "_suite_transform", "Random"),
    }
    calls = set()
    for path in SOURCES:
        tree = parse(path)
        owner = {}  # innermost enclosing function; ast.walk visits outer ones first
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), fn.name) for node in ast.walk(fn))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("Random", "sample_points"):
                    calls.add((path.name, owner.get(id(node)), name))
    assert ("theta.py", "sample_blocks", "sample_points") in calls
    assert calls <= allowed, f"sample draws outside the sample stream: {calls - allowed}"
