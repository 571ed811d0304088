"""The exported surface is the one the lab runs on.

Every name a module lists in ``__all__`` (function, class or constant),
and every public method and property of such a class, must be used outside its own
definition by the package itself, by the benchmark driver in
``perfbench/`` or by the acceptance criteria in ``tests/test_acceptance.py``.
A helper that only unit tests call is surface without a user.  A name used
only by other such helpers counts as unused too, so a dead cluster cannot
keep itself alive.
"""

import ast
import inspect
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
