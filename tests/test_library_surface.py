"""The library's surface, read from its source with ast (no module is imported).

Every public function and class has a caller in the library: a public
top-level name that only the tests use is an API nobody runs. And no module
reaches into another's private names: a decision such as the sieve's window
tiling stays behind the module that owns it.
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


def _private_uses(tree):
    """'module._name' for each underscore name tree takes from a sibling module.

    That is every underscore name of a relative import, and every underscore
    attribute read from a module that tree imports with 'from . import'.
    """
    siblings = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level and not node.module
                for alias in node.names}
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            uses.extend(f"{node.module or '.'}.{alias.name}" for alias in node.names
                        if alias.name.startswith("_"))
        elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and not node.attr.startswith("__")
              and isinstance(node.value, ast.Name) and node.value.id in siblings):
            uses.append(f"{node.value.id}.{node.attr}")
    return uses


def test_no_module_uses_another_modules_private_names():
    uses = {}
    for path in sorted(SRC.glob("*.py")):
        found = _private_uses(ast.parse(path.read_text(encoding="utf-8")))
        if found:
            uses[path.name] = found
    assert uses == {}
