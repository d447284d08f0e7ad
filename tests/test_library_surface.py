"""The library's surface, read from its source with ast (no module is imported).

Every public function and class has a caller in the library: a public
top-level name that only the tests use is an API nobody runs. No module
reaches into another's private names: a decision such as the sieve's window
tiling stays behind the module that owns it. And summation alone decides
how an array is summed: no other module fsums a list made from an array,
or names the slices of the exact reduction, their chunk size or their
range check, by any import. No module calls a BLAS routine, by @ or by
name. No module starts a thread, and only the sieve may hold a worker pool.
No module uses dataclasses, whose import brings in inspect.
The modules the CLI loads before a command needs an array import no numpy,
nor any module that does, when they are imported.
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


# summation's private helpers: the slicing, its chunk size, its range check
# and the exact expansion that folds the slice doubles
SUMMATION_PRIVATE = ("prefix_slices", "_slices", "_CHUNK", "_range", "_grow")


def _list_sums(tree):
    """Lines of tree that fsum a .tolist() or name a private helper of summation."""
    lines = []
    for node in ast.walk(tree):
        if _name(node) in SUMMATION_PRIVATE:
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and _name(node.func) == "fsum"
              and any(_name(inner) == "tolist"
                      for arg in node.args for inner in ast.walk(arg))):
            lines.append(node.lineno)
    return sorted(lines)


def _offending_lines(found):
    """'file:line: source' for each (path, line) in found."""
    return [f"{path.name}:{line}: "
            f"{path.read_text(encoding='utf-8').splitlines()[line - 1].strip()}"
            for path, line in found]


def test_only_summation_sums_arrays_as_lists_or_handles_slices():
    found = [(path, line) for path in sorted(SRC.glob("*.py"))
             if path.name != "summation.py"
             for line in _list_sums(ast.parse(path.read_text(encoding="utf-8")))]
    assert _offending_lines(found) == []


def test_the_guard_names_a_read_of_summation_internals(tmp_path):
    # by any import: relative, absolute, as an attribute, or aliased
    bad = tmp_path / "bad.py"
    bad.write_text("from . import summation\n"
                   "size = summation._CHUNK\n"
                   "from germain_lab.summation import _range as r\n"
                   "import germain_lab.summation as s\n"
                   "parts = s._slices(t, [(0, 1)])\n"
                   "from .summation import _grow\n", encoding="utf-8")
    found = [(bad, line) for line in _list_sums(ast.parse(bad.read_text()))]
    assert _offending_lines(found) == [
        "bad.py:2: size = summation._CHUNK",
        "bad.py:3: from germain_lab.summation import _range as r",
        "bad.py:5: parts = s._slices(t, [(0, 1)])",
        "bad.py:6: from .summation import _grow"]


# numpy's routines that run on BLAS; the CLI stops OpenBLAS's threads from
# starting because no module calls one
BLAS_NAMES = {"dot", "matmul", "linalg", "einsum", "inner", "vdot", "tensordot"}


def _blas_uses(tree):
    """Lines of tree that multiply by @ or reach a BLAS routine by attribute
    or import. A local name such as `inner` is not a use."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names = {node.attr}
        elif isinstance(node, ast.alias):
            names = set(node.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names = set((node.module or "").split("."))
        else:
            names = set()
        if names & BLAS_NAMES or isinstance(getattr(node, "op", None), ast.MatMult):
            lines.add(node.lineno)
    return sorted(lines)


def test_no_module_calls_a_blas_routine():
    found = [(path, line) for path in sorted(SRC.glob("*.py"))
             for line in _blas_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert _offending_lines(found) == []


def test_the_blas_guard_names_each_way_to_a_blas_routine(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\n"
                   "c = a @ b\n"
                   "c @= b\n"
                   "v = np.dot(a, b)\n"
                   "n = np.linalg.norm(v)\n"
                   "from numpy import einsum\n"
                   "from numpy.linalg import norm\n"
                   "inner = a * b\n", encoding="utf-8")
    found = [(bad, line) for line in _blas_uses(ast.parse(bad.read_text()))]
    assert _offending_lines(found) == [
        "bad.py:2: c = a @ b",
        "bad.py:3: c @= b",
        "bad.py:4: v = np.dot(a, b)",
        "bad.py:5: n = np.linalg.norm(v)",
        "bad.py:6: from numpy import einsum",
        "bad.py:7: from numpy.linalg import norm"]


def _numpy_random_uses(tree):
    """Lines of tree that name numpy.random: by import, from-import or as
    an attribute of numpy (np.random). A local name `random`, or the
    stdlib's random module, is not a use."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            names = []
        if any(name.split(".")[:2] in (["numpy", "random"], ["np", "random"])
               for name in names):
            lines.add(node.lineno)
    return sorted(lines)


def test_no_module_loads_numpy_random():
    # the seeded signs come from the stdlib's generator; numpy.random costs
    # about 6 MB of RSS to import
    found = [(path, line) for path in sorted(SRC.glob("*.py"))
             for line in _numpy_random_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert _offending_lines(found) == []


def test_the_numpy_random_guard_names_each_way_to_it(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\n"
                   "rng = np.random.default_rng(7)\n"
                   "import numpy.random\n"
                   "from numpy import random\n"
                   "from numpy.random import default_rng\n"
                   "import random\n"
                   "bits = random.Random(7).getrandbits(8)\n"
                   "import numpy.random as npr\n", encoding="utf-8")
    found = [(bad, line) for line in _numpy_random_uses(ast.parse(bad.read_text()))]
    assert _offending_lines(found) == [
        "bad.py:2: rng = np.random.default_rng(7)",
        "bad.py:3: import numpy.random",
        "bad.py:4: from numpy import random",
        "bad.py:5: from numpy.random import default_rng",
        "bad.py:8: import numpy.random as npr"]


def _dataclass_uses(tree):
    """Lines of tree that import dataclasses, or read it as an attribute."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [node.value.id]
        else:
            names = []
        if any(name.split(".")[0] == "dataclasses" for name in names):
            lines.add(node.lineno)
    return sorted(lines)


def test_no_module_uses_dataclasses():
    # dataclasses imports inspect, about 8 ms of start-up; a record is a
    # typing.NamedTuple
    found = [(path, line) for path in sorted(SRC.glob("*.py"))
             for line in _dataclass_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert _offending_lines(found) == []


def test_the_dataclass_guard_names_each_way_to_it(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from dataclasses import dataclass\n"
                   "import dataclasses\n"
                   "f = dataclasses.field()\n"
                   "from typing import NamedTuple\n"
                   "import dataclasses as dc\n"
                   "dataclass = 1\n", encoding="utf-8")
    found = [(bad, line) for line in _dataclass_uses(ast.parse(bad.read_text()))]
    assert _offending_lines(found) == [
        "bad.py:1: from dataclasses import dataclass",
        "bad.py:2: import dataclasses",
        "bad.py:3: f = dataclasses.field()",
        "bad.py:5: import dataclasses as dc"]


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
