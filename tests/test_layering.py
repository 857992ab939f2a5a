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


def owners(tree: ast.Module) -> dict:
    """The name of the innermost function around each node, by node id."""
    owner = {}
    for fn in ast.walk(tree):  # outer functions come first, so inner ones overwrite
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((id(node), fn.name) for node in ast.walk(fn))
    return owner


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


def verdicts_and_tolerances(tree: ast.Module) -> list:
    """The NamedTuple classes that declare a `passed` field, and the
    functions that take an `rtol` parameter, by name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            getattr(base, "id", None) == "NamedTuple" for base in node.bases
        ):
            found += [
                f"{node.name}.passed" for item in node.body
                if isinstance(item, ast.AnnAssign) and getattr(item.target, "id", None) == "passed"
            ]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            if any(a.arg == "rtol" for a in args.posonlyargs + args.args + args.kwonlyargs):
                found.append(f"{node.name}(rtol)")
    return found


def test_only_identity_records_hold_a_verdict():
    # a check outside identities.py reports its figures, and the caller
    # builds the record whose constructor owns the pass rule
    found = {
        path.name: verdicts_and_tolerances(parse(path))
        for path in SOURCES if path.name != "identities.py"
    }
    assert not any(found.values()), found
    builders = {"hesse_check(rtol)", "weierstrass_check_level4(rtol)", "null_invariance_check(rtol)"}
    assert builders <= set(verdicts_and_tolerances(parse(PACKAGE / "identities.py")))
    # the rule sees both forms
    assert verdicts_and_tolerances(ast.parse(
        "class R(NamedTuple):\n    passed: bool\ndef f(x, *, rtol=1e-8):\n    return x"
    )) == ["R.passed", "f(rtol)"]


def test_sample_points_are_drawn_only_by_the_sample_stream():
    # every sampled check reads theta.sample_stream, directly or through
    # theta.sample_units; the transform suite draws its own box
    # [0.05, 0.65] + [0.02, 0.27] tau
    allowed = {
        ("theta.py", "sample_stream", "Random"),
        ("theta.py", "sample_stream", "sample_points"),
        ("cli.py", "_suite_transform", "Random"),
    }
    calls = set()
    for path in SOURCES:
        tree = parse(path)
        owner = owners(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("Random", "sample_points"):
                    calls.add((path.name, owner.get(id(node)), name))
    assert ("theta.py", "sample_stream", "sample_points") in calls
    assert calls <= allowed, f"sample draws outside the sample stream: {calls - allowed}"


def imported_modules(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


def test_only_the_lazy_module_binds_numpy():
    # every other module reads numpy as `from .lazy import np`
    found = [
        path.name for path in SOURCES
        if any(n == "numpy" or n.startswith("numpy.") for n in imported_modules(parse(path)))
    ]
    assert not found, f"modules that import numpy: {found}"
    assert '_lazy("numpy")' in (PACKAGE / "lazy.py").read_text()


def test_cli_neither_imports_nor_reads_numpy():
    # which commands execute numpy is decided in the numeric layer alone
    # (theta.pointwise), not by the command layer
    tree = parse(PACKAGE / "cli.py")
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert not [n.module for n in imports if isinstance(n, ast.ImportFrom) and n.module == "lazy"]
    bound = {alias.asname or alias.name for n in imports for alias in n.names}
    assert not bound & {"np", "numpy"}
    assert not [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id in ("np", "numpy")]


def names_read(tree: ast.Module, name: str) -> list:
    """(innermost function, line) of each place the module refers to `name`:
    as a variable, or bound by an import."""
    owner = owners(tree)
    return [
        (owner.get(id(node)), getattr(node, "lineno", None))
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == name
        or isinstance(node, ast.alias) and (node.asname or node.name) == name
    ]


def test_only_theta_decides_between_points_and_numpy_units():
    # theta.pointwise is the one rule, read by theta.sample_units; the
    # checks above it write each residual once, for either kind of unit
    for path in SOURCES:
        found = names_read(parse(path), "pointwise")
        if path.name == "theta.py":
            assert {fn for fn, _ in found} == {"sample_units"}, found
        else:
            assert not found, f"{path.name} refers to pointwise: {found}"
    for name in ("quadrics.py", "identities.py"):
        assert not names_read(parse(PACKAGE / name), "np"), f"{name} binds or reads np"
    # projective.py keeps the dense matrix, a reference for tests, and nothing else
    reads = {fn for fn, _ in names_read(parse(PACKAGE / "projective.py"), "np")}
    assert reads == {None, "complex_array"}, reads


def run_at_import(tree: ast.Module):
    """The nodes of a module that Python evaluates when it imports it: all
    but function and lambda bodies (decorators, default values and class
    bodies are in), and annotations only where they are not postponed."""
    postponed = any(
        isinstance(node, ast.ImportFrom) and node.module == "__future__"
        and any(alias.name == "annotations" for alias in node.names)
        for node in tree.body
    )
    todo = [tree]
    while todo:
        node = todo.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            todo += getattr(node, "decorator_list", [])
            todo += args.defaults + [d for d in args.kw_defaults if d is not None]
            if not postponed and not isinstance(node, ast.Lambda):
                every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
                todo += [a.annotation for a in every if a is not None and a.annotation]
                todo += [node.returns] if node.returns else []
        elif postponed and isinstance(node, ast.AnnAssign):
            todo += [node.target] + ([node.value] if node.value else [])
        else:
            todo += ast.iter_child_nodes(node)


def np_reads_at_import(tree: ast.Module) -> list:
    return [
        node.lineno for node in run_at_import(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "np"
    ]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_numpy_attribute_is_read_at_import(path):
    # such a read would execute numpy in every command
    assert not np_reads_at_import(parse(path)), path.name


def test_the_import_time_rule_sees_every_place_code_runs_at_import():
    reads = [
        "X = np.pi",
        "@np.vectorize\ndef f(x):\n    return x",
        "def f(x=np.pi):\n    return x",
        "def f(*, x=np.pi):\n    return x",
        "g = lambda x=np.pi: x",
        "class C:\n    x = np.pi",
        "class C(np.ndarray):\n    pass",
        "T = {w: np.dtype(w) for w in 'ab'}",
        "def f(x: np.ndarray) -> np.ndarray:\n    return x",
        "x: np.ndarray = 1",
    ]
    for src in reads:
        assert np_reads_at_import(ast.parse(src)), src
    deferred = [
        "def f(x):\n    return np.pi",
        "g = lambda x: np.pi",
        "class C:\n    def f(self):\n        return np.pi",
        "from __future__ import annotations\ndef f(x: np.ndarray) -> np.ndarray:\n    return x",
        "from __future__ import annotations\nx: np.ndarray = 1",
    ]
    for src in deferred:
        assert not np_reads_at_import(ast.parse(src)), src


def test_only_cli_run_exits_without_teardown():
    calls = []
    for path in SOURCES:
        tree = parse(path)
        owner = owners(tree)
        calls += [
            (path.name, owner.get(id(node)))
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_exit"
            or isinstance(node, ast.alias) and node.name == "_exit"
        ]
    assert calls == [("cli.py", "run")]
