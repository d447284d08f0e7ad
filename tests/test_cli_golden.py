"""Byte contract of the CLI: stdout, stderr and exit code of every command.

Each case runs ``cli.main`` in-process, once as given (CSV) and once with
``--format json``, and compares sha256 digests of stdout and stderr and the
exit code with ``cli_golden.json`` beside this file. Every argv uses only
flags its command reads. The error cases pin the JSON records on stderr.

Re-record the digests (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from germain_lab.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

CASES = [
    "census --x 1e2,1e3,1e4 --c2-cutoff 1e4 --threads 2",
    "census --x 1e2,1e3 --a 4 --b 1 --sieve-limit 1e5 --c2-cutoff 1e4",
    "census --x 50,100 --a 2 --b -1 --c2-cutoff 1e4",
    "hl-compare --x 1e2,1e4 --c2-cutoff 1e4",
    "hl-compare --x 1e3 --a 4 --b 1 --sieve-limit 1e4 --c2-cutoff 1e4",
    "psi0-partition --x 50,120",
    "psi0-partition --x 100 --x1 10 --sieve-limit 1e3",
    "reciprocal-sum --x 23,1e3 --c2-cutoff 1e4",
    "reciprocal-sum --x 1e3 --sieve-limit 1e4",
    "twisted-sums --m 2 --x 100,1000 --c2-cutoff 1e4",
    "twisted-sums --m 6 --x 500 --no-log --c2-cutoff 1e4",
    "twisted-sums --m 3 --x 200 --with-log",
    "ap-census --x 10,100 --q 3",
    "ap-census --x 100,1e3 --q 4 --weighted",
    "sums --formula log-lcm --x 50,100",
    "sums --formula mobius-phi-lcm --method both --x 50,100",
    "sums --formula squarefree-harmonic --x 1e3",
    "sums --formula mobius-log --x 1e3",
    # several checkpoints of one table or pass; 121 has the companion 3^5
    "census --x 8,9,25,27,49,121,125 --c2-cutoff 1e4",
    "ap-census --x 1,10,100,1e3,1e4 --q 6 --weighted",
    "sums --formula mobius-log --x 1,2,1e3,1e5",
    "sums --formula squarefree-harmonic --x 1,1e3,1e5",
    "twisted-sums --m 30 --x 1,2,3,1e5 --no-log",
    "verify-identities --max 40",
    "large-sieve",
    "large-sieve --x 300 --Q 12 --sequence random --trials 3 --seed 7",
    "large-sieve --x 500 --Q 10 --sequence primes",
    "primroot --theorem-4p1 --limit 1000",
    "primroot --fermat --trials 20 --seed 3",
    "primroot --short-test --limit 2000 --trials 5 --seed 1",
    "table-errata",
    "table-errata --limit 100",
    "constants --cutoff 1e4 --d 2,6,30",
    "constants",
    # every flag at its default, so each report config is pinned
    "verify-identities",
    "ap-census --x 100",
    "twisted-sums --x 100",
    "primroot --fermat",
    "primroot --short-test",
    "large-sieve --sequence random",
    # errors
    "census --x 1e6 --sieve-limit 1e4",  # beyond the sieve capability
    "census --x 100,50",
    "census --x 2.5",
    "census --x 1 --c2-cutoff 1e4",
    "no-such-command",
    "primroot --limit 100",  # no mode
    "twisted-sums --x 100 --with-log --no-log",
    "sums --x 100",  # no --formula
]

ARGVS = [argv for case in CASES for argv in (case, case + " --format json")]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_case(argv: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv.split())
    return code, out.getvalue(), err.getvalue()


def digest(code: int, stdout: str, stderr: str) -> dict:
    return {"exit": code, "stdout": _sha(stdout), "stderr": _sha(stderr)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", ARGVS)
def test_cli_bytes_match_golden(argv, golden):
    code, stdout, stderr = run_case(argv)
    assert digest(code, stdout, stderr) == golden[argv], (
        f"exit {code}\n--- stdout\n{stdout}--- stderr\n{stderr}")


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(ARGVS)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({a: digest(*run_case(a)) for a in ARGVS},
                                 indent=1) + "\n", encoding="utf-8")
