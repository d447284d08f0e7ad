"""Start-up: the package, the CLI parser and the commands that need no array
load no numpy; each layer is imported when a command that reads it runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import germain_lab

SRC = Path(__file__).resolve().parents[1] / "src"

# (step, code): run in order in one fresh interpreter; each cli.main call
# is followed by the exit status it returned
_STEPS = (
    ("import germain_lab", "import germain_lab"),
    ("build_parser", "from germain_lab import cli; cli.build_parser()"),
    ("usage error", "cli.main(['census', '--x', 'abc'])"),
    ("capacity refusal", "cli.main(['census', '--x', '1e12'])"),
    ("table-errata", "cli.main(['table-errata'])"),
    ("primroot --fermat", "cli.main(['primroot', '--fermat'])"),
    # the control: a sieve call does load numpy
    ("constants", "cli.main(['constants', '--cutoff', '1e3'])"),
)

_SCRIPT = """
import json, sys
seen = []
for step, code in {steps!r}:
    status = eval(code) if code.startswith("cli.main") else exec(code)
    seen.append([step, status, "numpy" in sys.modules])
sys.stdout.write("\\n" + json.dumps(seen) + "\\n")
"""


def test_commands_without_arrays_load_no_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _SCRIPT.format(steps=_STEPS)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen == [
        ["import germain_lab", None, False],
        ["build_parser", None, False],
        ["usage error", 2, False],
        ["capacity refusal", 1, False],
        ["table-errata", 0, False],
        ["primroot --fermat", 0, False],
        ["constants", 0, True],
    ]


@pytest.mark.parametrize("name", germain_lab.__all__)
def test_each_public_name_is_its_modules_object(name):
    value = getattr(germain_lab, name)
    home = sys.modules[value.__module__]
    assert home.__name__.startswith("germain_lab.")
    assert getattr(home, name) is value
    assert name in dir(germain_lab)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        germain_lab.no_such_name
    from germain_lab import arith  # a submodule is imported, not refused
    assert arith.__name__ == "germain_lab.arith"
