"""No package code kept only for the tests: every top-level function or
class of src/ehrpath is referenced from the package or the benchmark (by a
name, an attribute or an import), or exported by ehrpath.__all__."""

import ast
from pathlib import Path

import ehrpath

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ehrpath"


def test_every_top_level_definition_is_referenced_or_exported():
    trees = {path: ast.parse(path.read_text())
             for folder in (PACKAGE, ROOT / "benchmarks") for path in sorted(folder.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    unreferenced = [f"{path.name}: {node.name}" for path, tree in trees.items()
                    if path.parent == PACKAGE for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name not in referenced and node.name not in ehrpath.__all__]
    assert unreferenced == []
