"""The benchmark's reports, checked in tier-1.

perfbench/golden.json holds the sha256 of the stdout of every benchmark
command whose report does not depend on a seed. Each of its keys runs here
through cli.main, in-process, with the --threads 2 that every benchmark
command passes, and must print the pinned bytes. A seeded command's report
changes with the seed, so it runs here at three seeds, with the argv the
benchmark builds, and must pass its check from perfbench/workloads.py. A
change that moves or breaks a benchmark report then fails here, not only
in a benchmark run. The files under perfbench/ are only read.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from germain_lab.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = PERFBENCH / "golden.json"
PINNED = json.loads(GOLDEN.read_text(encoding="utf-8"))


def _workloads():
    # loaded from its file under a name of its own, so that neither the
    # benchmark's directory nor its module name enters the import path
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads().WORKLOADS
SEEDED = [command for commands in WORKLOADS.values() for command in commands
          if command.seeded]


@pytest.mark.parametrize("key", sorted(PINNED))
def test_benchmark_report_matches_its_golden_digest(key, capsys):
    assert "{seed}" not in key
    assert main([*key.split(), "--threads", "2"]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == PINNED[key], stdout


def test_the_benchmark_has_three_seeded_commands_each_with_a_check():
    assert sorted(command.args[:2] for command in SEEDED) == [
        ("large-sieve", "--x"), ("primroot", "--fermat"), ("primroot", "--short-test")]
    assert all(command.check is not None for command in SEEDED)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("command", SEEDED, ids=lambda command: command.key)
def test_seeded_benchmark_report_passes_its_check(command, seed, capsys):
    assert main(command.argv(seed)) == 0
    stdout = capsys.readouterr().out
    assert command.check(stdout) is None, stdout
