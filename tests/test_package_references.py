"""No package code kept only for the tests: every top-level function, class
or assigned name of src/ehrpath is read from the package or the benchmark
(by a name, an attribute or an import), or exported by ehrpath.__all__;
dunders such as __all__ itself are exempt."""

import ast
from pathlib import Path

import ehrpath

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ehrpath"


def defined_names(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function's or class's
    name, or each name an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def unreferenced(trees: dict[Path, ast.Module]) -> list[str]:
    """Each top-level name of a tree in PACKAGE that no tree reads, as
    "file: name", leaving out ehrpath.__all__ and dunders."""
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return [f"{path.name}: {name}" for path, tree in trees.items()
            if path.parent == PACKAGE for node in tree.body
            for name in defined_names(node)
            if name not in referenced and name not in ehrpath.__all__
            and not (name.startswith("__") and name.endswith("__"))]


def test_every_top_level_definition_is_referenced_or_exported():
    trees = {path: ast.parse(path.read_text())
             for folder in (PACKAGE, ROOT / "benchmarks") for path in sorted(folder.glob("*.py"))}
    assert unreferenced(trees) == []


def test_an_unread_module_constant_is_reported():
    trees = {PACKAGE / "lstm.py": ast.parse(
                 'CANDIDATE_ACTIVATIONS = ("relu", "tanh")\nKEPT: int = 1\n__all__ = []\n'),
             ROOT / "benchmarks" / "run.py": ast.parse(
                 "from ehrpath import lstm\nCANDIDATE_ACTIVATIONS = 2\nprint(lstm.KEPT)\n")}
    assert unreferenced(trees) == ["lstm.py: CANDIDATE_ACTIVATIONS"]
