"""Start-up: the package, the CLI parser and the commands that need no array
load no numpy; each layer is imported when a command that reads it runs.
Nor do they load json, decimal, fractions, dataclasses or inspect, unless
a step needs one: json for a JSON record, decimal to parse an exact integer.
A command that does load numpy runs on one OS thread, and the library alone
leaves the environment that sets this as it was. No command loads
numpy.random.
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


def _fresh(script: str, drop=()):
    """The last stdout line, as JSON, of script run in a fresh interpreter
    whose environment lacks the names in drop."""
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_commands_without_arrays_load_no_numpy():
    seen = _fresh(_SCRIPT.format(steps=_STEPS))
    assert seen == [
        ["import germain_lab", None, False],
        ["build_parser", None, False],
        ["usage error", 2, False],
        ["capacity refusal", 1, False],
        ["table-errata", 0, False],
        ["primroot --fermat", 0, False],
        ["constants", 0, True],
    ]


# refusals read from a command's flags alone, before its layer is imported
_FLAG_REFUSALS = (
    ("sums --method", "cli.main(['sums', '--formula', 'mobius-log', "
                      "'--method', 'brute', '--x', '10'])"),
    ("large-sieve --trials", "cli.main(['large-sieve', '--sequence', 'ones', "
                             "'--trials', '2'])"),
    ("large-sieve --seed", "cli.main(['large-sieve', '--sequence', 'primes', "
                           "'--seed', '3'])"),
)


def test_flag_only_refusals_load_no_numpy():
    steps = (("import", "from germain_lab import cli"), *_FLAG_REFUSALS)
    assert _fresh(_SCRIPT.format(steps=steps)) == [
        ["import", None, False], *([step, 1, False] for step, _ in _FLAG_REFUSALS)]


# What start-up must not load unless a step needs it: numpy for an array,
# json for a JSON record, decimal to parse an exact integer, fractions for
# the singular series. dataclasses, with the inspect it imports, no step
# needs.
_WATCHED = ("numpy", "json", "decimal", "fractions", "dataclasses", "inspect")

# (step, code): run in order in one fresh interpreter, the steps that need
# none of _WATCHED first; each records what has loaded by its end
_LEAN_STEPS = (
    ("import germain_lab", "import germain_lab"),
    ("build_parser", "from germain_lab import cli; cli.build_parser()"),
    ("table-errata", "cli.main(['table-errata'])"),
    ("primroot --fermat", "cli.main(['primroot', '--fermat'])"),
    ("refusal", "cli.main(['primroot', '--fermat', '--seed', '-3'])"),
    ("usage error", "cli.main(['census', '--x', 'abc'])"),
    ("constants", "cli.main(['constants', '--cutoff', '1e3'])"),
)

# json is imported only to print the result, after the last step
_LOADS = """
import sys
bare = set(sys.modules)
seen = []
for step, code in {steps!r}:
    status = eval(code) if code.startswith("cli.main") else exec(code)
    seen.append([step, status, sorted(m for m in {watched!r}
                                      if m in sys.modules and m not in bare)])
import json
sys.stdout.write("\\n" + json.dumps(seen) + "\\n")
"""


def test_start_up_loads_only_what_a_step_needs():
    seen = _fresh(_LOADS.format(steps=_LEAN_STEPS, watched=_WATCHED))
    assert seen[:-1] == [
        ["import germain_lab", None, []],
        ["build_parser", None, []],
        ["table-errata", 0, []],
        ["primroot --fermat", 0, []],
        ["refusal", 1, ["json"]],  # its JSON error record
        ["usage error", 2, ["decimal", "json"]],  # --x is parsed exactly
    ]
    # the control: a sieve call loads numpy, and the singular series fractions
    step, status, loaded = seen[-1]
    assert [step, status] == ["constants", 0]
    assert {"numpy", "fractions"} <= set(loaded)


_RANDOM_SIGNS = """
import io, json, sys
from contextlib import redirect_stdout
from germain_lab import cli
with redirect_stdout(io.StringIO()):
    status = cli.main(["large-sieve", "--sequence", "random", "--x", "100", "--Q", "3"])
seen = [status, "numpy" in sys.modules, "numpy.random" in sys.modules]
sys.stdout.write("\\n" + json.dumps(seen) + "\\n")
"""


def test_random_signs_load_no_numpy_random():
    # the signs come from the stdlib's generator; numpy itself is loaded
    assert _fresh(_RANDOM_SIGNS) == [0, True, False]


_THREADS = """
import json, os, sys
{body}
threads = next(int(line.split()[1]) for line in open("/proc/self/status")
               if line.startswith("Threads:"))
seen = [threads, os.environ.get("OPENBLAS_NUM_THREADS")]
sys.stdout.write("\\n" + json.dumps(seen) + "\\n")
"""
_LIBRARY = """
import importlib, pkgutil, germain_lab
for module in pkgutil.iter_modules(germain_lab.__path__):
    importlib.import_module("germain_lab." + module.name)
germain_lab.counting.pair_sums([100])
"""
_CLI = "from germain_lab import cli; cli.main(['constants', '--cutoff', '1e3'])"


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="no /proc/self/status to count the process's threads")
@pytest.mark.skipif(os.cpu_count() == 1,
                    reason="on one CPU OpenBLAS starts no extra thread, so "
                           "there is nothing to stop")
def test_a_numpy_command_runs_on_one_os_thread():
    # OPENBLAS_NUM_THREADS is dropped: a cli.main call in this process has
    # set it, and every child would inherit it
    drop = ("OPENBLAS_NUM_THREADS",)
    # the library alone leaves the environment as it was; the threads its
    # numpy starts are the control
    threads, variable = _fresh(_THREADS.format(body=_LIBRARY), drop)
    assert variable is None
    if threads == 1:
        pytest.skip("this numpy starts no BLAS thread here, so there is "
                    "nothing to stop")
    assert _fresh(_THREADS.format(body=_CLI), drop) == [1, "1"]


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
