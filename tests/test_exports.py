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
