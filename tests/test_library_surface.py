"""Every public function and class of the library has a caller in the library.

A public top-level name that only the tests use is an API nobody runs; the
scan reads the source with ast, so it needs no import of the modules.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "germain_lab"


def _public_definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _references(tree, skip):
    """Names and attributes tree refers to, outside the definition skip."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_public_definition_has_a_library_caller():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    unused = []
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        for node in _public_definitions(tree):
            if not any(node.name in _references(other, node)
                       for other in trees.values()):
                unused.append(f"{name[:-3]}.{node.name}")
    assert unused == []
