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
