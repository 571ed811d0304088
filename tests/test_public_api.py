"""The exported surface is the one the lab runs on.

Every name a module lists in ``__all__`` (function, class or constant),
and every public method and property of such a class, must be used outside its own
definition by the package itself, by the benchmark driver in
``perfbench/`` or by the acceptance criteria in ``tests/test_acceptance.py``.
A helper that only unit tests call is surface without a user.  A name used
only by other such helpers counts as unused too, so a dead cluster cannot
keep itself alive.  Every field of an exported dataclass must be read as
an attribute somewhere in the same files: a field only unit tests read is
a record without a reader.
"""

import ast
import dataclasses
import inspect
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "adsdirac"
USERS = (
    sorted(PACKAGE.glob("*.py"))
    + sorted((ROOT / "perfbench").rglob("*.py"))
    + [ROOT / "tests" / "test_acceptance.py"]
)


def _names(node):
    """Identifiers, attributes and string constants under ``node`` (the
    benchmark's tracer patches functions by name)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def _statements(path):
    """(defined name or None, names referenced) per top-level statement,
    with each method of a class as a statement of its own, defining
    ``Class.method``, and an assignment to one name defining that name;
    the ``__all__`` list itself references nothing."""
    out = []
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in stmt.targets
        ):
            continue
        if isinstance(stmt, ast.ClassDef):
            rest = set()
            for member in stmt.body:
                if isinstance(member, ast.FunctionDef):
                    out.append((f"{stmt.name}.{member.name}", _names(member)))
                else:
                    rest |= _names(member)
            out.append((stmt.name, rest | set().union(*map(_names, stmt.decorator_list))))
            continue
        defined = stmt.name if isinstance(stmt, ast.FunctionDef) else None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            defined = getattr(stmt.targets[0], "id", None)
        out.append((defined, _names(stmt)))
    return out


def _exports():
    """(module, name) for every name in an ``__all__``, and
    (module, ``Class.member``) for every public method and property the
    class itself defines."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = import_module(f"adsdirac.{path.stem}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            yield path.stem, name
            if inspect.isclass(obj):
                for member, value in vars(obj).items():
                    if not member.startswith("_") and (
                        inspect.isfunction(value) or isinstance(value, property)
                    ):
                        yield path.stem, f"{name}.{member}"


def _unused_exports():
    """Exports with no use outside their own definitions and the
    definitions of other unused exports, found by iterating to a fixed
    point.  A member counts as used wherever its name appears."""
    statements = {path: _statements(path) for path in USERS}
    exports = set(_exports())
    unused = set()
    while True:
        found = set()
        for module, name in sorted(exports - unused):
            skip = unused | {(module, name)}
            if not any(
                name.rpartition(".")[2] in names
                for path, stmts in statements.items()
                for defined, names in stmts
                if not (
                    path.parent == PACKAGE
                    and defined is not None
                    and {(path.stem, defined), (path.stem, defined.split(".")[0])} & skip
                )
            ):
                found.add((module, name))
        if not found:
            return unused
        unused |= found


def _exported_dataclasses():
    """(module, name, class) for every dataclass a module exports: those in
    its ``__all__``, or every public one it defines when it has none."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = import_module(f"adsdirac.{path.stem}")
        names = getattr(module, "__all__", None) or [
            name for name, value in vars(module).items()
            if not name.startswith("_") and getattr(value, "__module__", None) == module.__name__
        ]
        for name in names:
            obj = getattr(module, name)
            if inspect.isclass(obj) and dataclasses.is_dataclass(obj):
                yield path.stem, name, obj


def test_every_dataclass_field_is_read():
    reads = {
        node.attr
        for path in USERS
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{module}.{name}.{f.name}"
        for module, name, cls in _exported_dataclasses()
        for f in dataclasses.fields(cls)
        if f.name not in reads
    ]
    assert not unread, "fields no attribute read reaches: " + ", ".join(unread)


def test_every_export_has_a_user():
    unused = _unused_exports()
    assert not unused, "exported but used only by unit tests: " + ", ".join(
        f"{m}.{n}" for m, n in sorted(unused)
    )


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_dense_matrix_in_the_package(path):
    # every operator stays sparse; the dense eigensolve is a test oracle
    # (tests/conftest.py), so the package never densifies a matrix
    calls = [
        f"line {node.lineno}: .{node.func.attr}()"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("toarray", "todense")
    ]
    assert not calls, f"{path.name} densifies: " + ", ".join(calls)


def _random_uses(path):
    """(enclosing function, line) of every random-number use in a module:
    an attribute or name ``random`` or ``default_rng``, or an import of a
    ``random`` module."""
    uses = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else function
            modules = []
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                modules = [a.name for a in child.names] + [getattr(child, "module", None) or ""]
            if (
                (isinstance(child, ast.Attribute) and child.attr in ("random", "default_rng"))
                or (isinstance(child, ast.Name) and child.id in ("random", "default_rng"))
                or any(m.split(".")[-1] == "random" for m in modules)
            ):
                uses.add((inner, child.lineno))
            visit(child, inner)

    visit(ast.parse(path.read_text()), None)
    return uses


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_random_sampling_in_the_package(path):
    # no verdict may rest on random sampling; the one exception is the
    # fixed start vector that keeps eigendecompose's Lanczos solve
    # reproducible, a single line
    uses = _random_uses(path)
    start = {u for u in uses if path.name == "spectral.py" and u[0] == "eigendecompose"}
    if len(start) == 1:
        uses -= start
    assert not uses, f"{path.name} draws random numbers: " + ", ".join(
        f"line {line} in {function or 'module scope'}" for function, line in sorted(
            uses, key=lambda u: u[1]
        )
    )


def test_cli_import_leaves_out_the_heavy_scipy_subpackages():
    """``import adsdirac.cli`` loads the whole package; none of it may pull
    in scipy.integrate, scipy.interpolate or scipy.optimize, which add
    about 160 ms and 18 MB to every process that starts the lab."""
    heavy = ("scipy.integrate", "scipy.interpolate", "scipy.optimize")
    probe = f"import sys, adsdirac.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])
    )}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
