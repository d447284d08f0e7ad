"""The benchmark's pinned reports, checked in tier-1.

perfbench/golden.json holds the sha256 of the stdout of every benchmark
command whose report does not depend on a seed. Each of its keys runs here
through cli.main, in-process, with the --threads 2 that every benchmark
command passes, and must print the pinned bytes. A change that moves a
benchmark report then fails here, not only in a benchmark run. The files
under perfbench/ are only read.
"""

import hashlib
import json
from pathlib import Path

import pytest

from germain_lab.cli import main

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
PINNED = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", sorted(PINNED))
def test_benchmark_report_matches_its_golden_digest(key, capsys):
    assert "{seed}" not in key
    assert main([*key.split(), "--threads", "2"]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == PINNED[key], stdout
