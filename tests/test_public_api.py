"""The exported surface is the one the lab runs on.

Every function or class a module lists in ``__all__`` must be used outside
its own definition by the package itself, by the benchmark driver in
``perfbench/`` or by the acceptance criteria in ``tests/test_acceptance.py``.
A helper that only unit tests call is surface without a user.  A name used
only by other such helpers counts as unused too, so a dead cluster cannot
keep itself alive.  Oracles that tests compare the lab against stay on the
allow-list below, each with its reason.
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

#: (module, name) → why the export stays although only unit tests use it
ORACLES = {
    ("geometry", "surface_gravity"): "the closed-form κ that Params.kappa is tested against",
}


def _statements(path):
    """(defined name or None, names referenced) per top-level statement.

    Names are read from identifiers, attributes and string constants (the
    benchmark's tracer patches functions by name); the ``__all__`` list
    itself references nothing."""
    out = []
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in stmt.targets
        ):
            continue
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
        defined = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        out.append((defined, names))
    return out


def _exports():
    """(module, name) for every function and class in an ``__all__``."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = import_module(f"adsdirac.{path.stem}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                yield path.stem, name


def _unused_exports(kept):
    """Exports with no use outside their own definitions and the
    definitions of other unused exports, found by iterating to a fixed
    point; the ``kept`` names count as used, and so does what they use."""
    statements = {path: _statements(path) for path in USERS}
    exports = set(_exports()) - set(kept)
    unused = set()
    while True:
        found = set()
        for module, name in sorted(exports - unused):
            skip = unused | {(module, name)}
            if not any(
                name in names
                for path, stmts in statements.items()
                for defined, names in stmts
                if not (path.parent == PACKAGE and (path.stem, defined) in skip)
            ):
                found.add((module, name))
        if not found:
            return unused
        unused |= found


def test_every_export_has_a_user():
    unused = _unused_exports(ORACLES)
    assert not unused, "exported but used only by unit tests: " + ", ".join(
        f"{m}.{n}" for m, n in sorted(unused)
    )


@pytest.mark.parametrize("entry", sorted(ORACLES))
def test_oracle_allow_list_is_current(entry):
    # an allow-listed name must still be exported and still lack a user;
    # once something uses it, the entry goes
    assert entry in set(_exports())
    assert entry in _unused_exports(kept=())


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
