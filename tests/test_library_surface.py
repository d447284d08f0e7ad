"""The library's surface, read from its source with ast (no module is imported).

Every public function and class has a caller in the library: a public
top-level name that only the tests use is an API nobody runs. No module
reaches into another's private names: a decision such as the sieve's window
tiling stays behind the module that owns it. And summation alone decides
how an array is summed: no other module fsums a list made from an array,
or handles the slices of the exact reduction. No module starts a thread,
and only the sieve may hold a worker pool. The modules the CLI loads before
a command needs an array import no numpy, nor any module that does, when
they are imported.
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


def _name(node):
    """The name a Name, Attribute, alias or definition node carries, else None."""
    for field in ("id", "attr", "name"):
        if isinstance(getattr(node, field, None), str):
            return getattr(node, field)
    return None


def _list_sums(tree):
    """Lines of tree that fsum a .tolist() or name a slice helper of summation."""
    lines = []
    for node in ast.walk(tree):
        if _name(node) in ("prefix_slices", "_slices"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and _name(node.func) == "fsum"
              and any(_name(inner) == "tolist"
                      for arg in node.args for inner in ast.walk(arg))):
            lines.append(node.lineno)
    return lines


def test_only_summation_sums_arrays_as_lists_or_handles_slices():
    uses = {}
    for path in sorted(SRC.glob("*.py")):
        lines = _list_sums(ast.parse(path.read_text(encoding="utf-8")))
        if lines and path.name != "summation.py":
            uses[path.name] = lines
    assert uses == {}


def _imported_packages(tree):
    """The top-level package of every absolute import in tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_no_module_starts_threads_and_only_sieve_may_pool_workers():
    uses = {}
    for path in sorted(SRC.glob("*.py")):
        packages = _imported_packages(ast.parse(path.read_text(encoding="utf-8")))
        forbidden = {"threading", "_thread"}
        if path.name != "sieve.py":
            forbidden.add("concurrent")
        found = sorted(packages & forbidden)
        if found:
            uses[path.name] = found
    assert uses == {}


# Importing these must not load numpy: the package, the CLI and its parser,
# and the layers of the commands that need no array.
NUMPY_FREE = {"__init__", "cli", "reports", "primroot", "sieve", "arith"}


def _import_time_statements(tree):
    """The statements that run when the module is imported: none in a def."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _loads_numpy(node):
    """Does node import numpy, or a sibling module outside NUMPY_FREE?"""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    if isinstance(node, ast.ImportFrom) and not node.level:
        return node.module.split(".")[0] == "numpy"
    if isinstance(node, ast.ImportFrom):
        siblings = [node.module] if node.module else [a.name for a in node.names]
        return any(m not in NUMPY_FREE for m in siblings)
    return False


def test_modules_loaded_before_a_command_import_no_numpy():
    found = {}
    for name in sorted(NUMPY_FREE):
        tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
        lines = sorted((node.lineno, ast.unparse(node))
                       for node in _import_time_statements(tree)
                       if _loads_numpy(node))
        if lines:
            found[name] = lines
    assert found == {}
