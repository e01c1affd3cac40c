"""Every module-level import of a library module is used by that module, and
every module-level function or class is exported or used."""

import ast
from pathlib import Path

import pytest

import trusslab

SRC = Path(__file__).resolve().parent.parent / "src" / "trusslab"


def _imported_names(tree: ast.Module) -> list[str]:
    """The names bound by the module's top-level imports, __future__ aside."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.extend((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.extend(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.stem
)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in _imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports but never uses {unused}"


def _top_level_references(tree: ast.Module) -> set[str]:
    """Names and attribute names read anywhere in the module, except a
    module-level function's or class's reads of its own name."""
    names = set()
    for top in tree.body:
        found = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(top)
                 if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            found.discard(top.name)
        names |= found
    return names


def test_every_library_function_is_exported_or_used():
    """A module-level function or class of the library is in
    ``trusslab.__all__`` or is referenced by name in the library; anything
    else is code that only tests could reach."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    used = set(trusslab.__all__).union(*map(_top_level_references, trees.values()))
    dead = [f"{stem}.{node.name}" for stem, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used]
    assert not dead, f"neither exported nor used in the library: {dead}"
