"""The CI workflow runs ROADMAP's tier-1 command, read from both files as text,
and installs every module outside the standard library that the tests and
the package import.

CI installs only numpy, pytest, hypothesis and mpmath, so the workflow is
parsed here line by line, not with a YAML library.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def _run_steps(workflow):
    """The value of each `run:` key of the workflow's steps, in order."""
    return [m.group(1).strip()
            for m in re.finditer(r"^\s*(?:-\s+)?run:[ \t]*(.*)$", workflow, re.M)]


def test_the_workflow_runs_the_roadmaps_tier1_command():
    roadmap = (ROOT / "ROADMAP.md").read_text()
    commands = re.findall(r"^\*\*Tier-1 verify:\*\* `([^`]+)`$", roadmap, re.M)
    assert len(commands) == 1, commands
    runs = _run_steps(WORKFLOW.read_text())
    # the tests are the last step, and no other step runs them
    assert runs[-1] == commands[0]
    assert commands[0] not in runs[:-1]


def _imported_modules(path):
    """The top-level names of the modules a source file imports, by import
    statements and by pytest.importorskip("...")."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "importorskip" and node.args
              and isinstance(node.args[0], ast.Constant)):
            names.add(node.args[0].value)
    return {name.split(".")[0] for name in names}


def test_the_workflow_installs_every_module_the_tests_import():
    files = [*(ROOT / "tests").rglob("*.py"), *(ROOT / "src").rglob("*.py")]
    # the repo's own modules: the package, and the tests' helper modules
    own = {"germain_lab", *(path.stem for path in (ROOT / "tests").glob("*.py"))}
    needed = set().union(*map(_imported_modules, files)) - set(
        sys.stdlib_module_names) - own
    [install] = [run for run in _run_steps(WORKFLOW.read_text())
                 if run.startswith("pip install")]
    installed = {re.match(r"[A-Za-z0-9_.-]+", word.strip('"')).group(0)
                 for word in install.split()[2:]}
    assert {"numpy", "pytest", "hypothesis"} <= needed
    assert needed <= installed, needed - installed
