"""Each public name has one home: a module's ``__all__`` lists only names the
module itself defines, never ones it imports from another module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mpfkit"
# the package root is the one place that names another module's types
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _defined(tree: ast.Module) -> set[str]:
    """Names bound at the top level by a def, a class or an assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_all_names_only_what_the_module_defines(path):
    tree = ast.parse(path.read_text())
    assert sorted(set(_exported(tree)) - _defined(tree)) == []


TESTS = Path(__file__).resolve().parent
ALL_MODULES = sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")])


def _unread_imports(source: str) -> list[str]:
    """Names a module imports but never reads, besides its ``__all__`` names
    and imports marked ``# noqa: F401`` (kept for another module's lookup)."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            future = isinstance(node, ast.ImportFrom) and node.module == "__future__"
            if future or "# noqa: F401" in lines[node.end_lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read.update(_exported(tree))
    unread = [(name, line) for name, line in imported.items() if name not in read]
    return sorted(f"{name} (line {line})" for name, line in unread)


@pytest.mark.parametrize(
    "path", ALL_MODULES, ids=lambda p: f"{p.parent.name}/{p.stem}"
)
def test_every_imported_name_is_read(path):
    assert _unread_imports(path.read_text()) == []


def test_unread_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from sys import argv, path\n"
        "from json import dumps  # noqa: F401\n"
        "print(path)\n"
    )
    assert _unread_imports(source) == ["argv (line 3)", "os (line 2)"]


def _readers(tree: ast.Module, name: str) -> list[str]:
    """Top-level functions that read ``name``, as a name or an attribute."""
    return [
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and any(
            (isinstance(n, ast.Name) and n.id == name)
            or (isinstance(n, ast.Attribute) and n.attr == name)
            for n in ast.walk(node)
        )
    ]


@pytest.mark.parametrize("name", ["commutator_sums", "norm_mode"])
def test_cli_walks_and_picks_its_norm_mode_in_one_place(name):
    # every table-reading subcommand gets its mode and tables from one step
    tree = ast.parse((SRC / "cli.py").read_text())
    assert _readers(tree, name) == ["_walk"]


def _mentions(tree: ast.Module, name: str) -> bool:
    """Whether a module defines, imports, reads or exports ``name`` (its
    docstrings and comments do not count)."""
    fields = ("id", "attr", "name")  # a Name, an Attribute, an alias or a def
    return name in _exported(tree) or any(
        getattr(node, f, None) == name for node in ast.walk(tree) for f in fields
    )


def test_only_the_sector_frame_holds_the_leak_rule():
    # the allowance, its error and the norm route live in dense alone
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    assert sorted(m for m, t in trees.items() if _mentions(t, "LEAK_TOL")) == ["dense"]
    assert "SectorLeakError" in _defined(trees["dense"])
    assert sorted(m for m, t in trees.items() if _mentions(t, "_sector_norm")) == []


# Integer sums, exact on every interpreter.  A float sum takes math.fsum:
# the builtin sum() compensates only from Python 3.12 on.
INTEGER_SUMS = {
    ("bch", "_pair_weights.split"): 1,  # the split numerators
    ("bch", "check_series_budget"): 4,
    ("dense", "SectorFrame.__init__"): 1,  # the reflection index
    ("formulas", "make_mpf_spec"): 1,  # norm_k_1
}


def _builtin_sums(tree: ast.Module) -> dict[tuple[str, ...], int]:
    """Calls of the builtin ``sum`` by the qualified name of the function
    (nested defs and classes joined by dots) that makes them."""
    found: dict[tuple[str, ...], int] = {}

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "sum"
            ):
                found[scope] = found.get(scope, 0) + 1
            visit(child, scope)

    visit(tree, ())
    return found


def test_only_integer_sums_call_the_builtin_sum():
    found = {
        (path.stem, ".".join(scope)): count
        for path in MODULES
        for scope, count in _builtin_sums(ast.parse(path.read_text())).items()
    }
    assert found == INTEGER_SUMS


def test_builtin_sums_are_found():
    source = (
        "total = sum([1, 2])\n"
        "def f(xs):\n"
        "    return sum(xs) + math.fsum(xs)\n"
        "class A:\n"
        "    def g(self, xs):\n"
        "        def h():\n"
        "            return sum(xs), sum(xs)\n"
        "        return h\n"
    )
    assert _builtin_sums(ast.parse(source)) == {(): 1, ("f",): 1, ("A", "g", "h"): 2}
