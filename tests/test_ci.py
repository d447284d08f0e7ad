"""The CI workflow runs ROADMAP's tier-1 command, read from both files as text.

CI installs only numpy, pytest, hypothesis and mpmath, so the workflow is
parsed here line by line, not with a YAML library.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_steps(workflow):
    """The value of each `run:` key of the workflow's steps, in order."""
    return [m.group(1).strip()
            for m in re.finditer(r"^\s*(?:-\s+)?run:[ \t]*(.*)$", workflow, re.M)]


def test_the_workflow_runs_the_roadmaps_tier1_command():
    roadmap = (ROOT / "ROADMAP.md").read_text()
    commands = re.findall(r"^\*\*Tier-1 verify:\*\* `([^`]+)`$", roadmap, re.M)
    assert len(commands) == 1, commands
    runs = _run_steps((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    # the tests are the last step, and no other step runs them
    assert runs[-1] == commands[0]
    assert commands[0] not in runs[:-1]
