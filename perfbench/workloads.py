"""The benchmark's workloads: CLI commands and the checks on their reports.

Every command runs with ``--threads 2`` (the benchmark machine has two
cores). A command whose arguments hold ``{seed}`` takes the run's seed; its
report changes with the seed, so it is checked by the properties below.
Every other report must match the sha256 digest in ``golden.json``,
recorded from the parent commit of the benchmark.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

THREADS = ("--threads", "2")

# OEIS A092816: Sophie Germain primes p <= 10^k, k = 2..8.
CENSUS_PI_G = [10, 37, 190, 1171, 7746, 56032, 423140]
# OEIS A005597, the twin-prime constant.
C2 = 0.66016181584686957
# Singular series over C2 for the offsets the constants command asks for:
# 2 * prod over odd p | d/2 of (p-1)/(p-2).
SINGULAR_RATIO = {2: Fraction(2), 6: Fraction(4), 30: Fraction(16, 3)}
ERRATA_ROWS = {673, 739}


def rows(report: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(report)))


def check_census(report: str) -> str | None:
    got = [int(r["pi_g"]) for r in rows(report)]
    return None if got == CENSUS_PI_G else f"pi_g {got} != A092816 {CENSUS_PI_G}"


def check_constants(report: str) -> str | None:
    table = rows(report)
    c2 = float(table[0]["value"])
    tail = float(table[0]["tail_bound"])
    if table[0]["kind"] != "twin-prime-constant" or abs(c2 - C2) > tail:
        return f"C2 {c2} not within tail bound {tail} of A005597"
    series = {int(r["d"]): float(r["value"]) for r in table[1:]}
    if series.keys() != SINGULAR_RATIO.keys():
        return f"singular series offsets {sorted(series)}"
    for d, ratio in SINGULAR_RATIO.items():
        # CSV cells carry 15 significant digits
        if abs(series[d] / c2 - float(ratio)) > 1e-14 * float(ratio):
            return f"singular series d={d}: {series[d]} != {ratio} * C2"
    return None


def check_all_true(column: str, count: int | None = None) -> Callable[[str], str | None]:
    def check(report: str) -> str | None:
        table = rows(report)
        if not table or (count is not None and len(table) != count):
            return f"{len(table)} rows"
        bad = [r for r in table if r[column] != "true"]
        return f"{len(bad)} rows with {column} false" if bad else None
    return check


def check_short_test(report: str) -> str | None:
    table = rows(report)
    bad = [r["q"] for r in table if r["agreements"] != r["trials"]]
    if not table or bad:
        return f"{len(table)} rows, disagreements at q={bad[:5]}"
    return None


def check_errata(report: str) -> str | None:
    flagged = {int(r["p"]) for r in rows(report) if r["match"] != "true"}
    return None if flagged == ERRATA_ROWS else f"flagged rows {sorted(flagged)}"


def check_identities(report: str) -> str | None:
    bad = [r["identity"] for r in rows(report) if r["nonzero_residuals"] != "0"]
    return f"nonzero residuals in {bad}" if bad else None


def check_large_sieve(report: str) -> str | None:
    table = rows(report)
    slack = [float(r["slack"]) for r in table]
    if len(table) != 20 or min(slack) < 0:
        return f"{len(table)} rows, minimum slack {min(slack, default=None)}"
    return None


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]
    check: Callable[[str], str | None] | None = None

    @property
    def seeded(self) -> bool:
        return "{seed}" in self.args

    @property
    def key(self) -> str:
        """Identifies the command in golden.json."""
        return " ".join(self.args)

    def argv(self, seed: int) -> list[str]:
        return [a.format(seed=seed) for a in self.args] + list(THREADS)


def cmd(text: str, check=None) -> Command:
    return Command(tuple(text.split()), check)


# Why each workload is here is said once, in BENCHMARK.json. Everything
# but the census runs as one workload: the benchmark's runs have to be
# about a minute long to average out the speed swings of a shared machine,
# and the run budget allows two workloads of that length.
WORKLOADS: dict[str, list[Command]] = {
    "census-default": [cmd("census", check_census)],
    "constants-sweeps-sums": [
        cmd("constants --cutoff 1e8 --d 2,6,30", check_constants),
        cmd("primroot --theorem-4p1 --limit 1e6", check_all_true("two_generates")),
        cmd("primroot --short-test --limit 1e5 --trials 20 --seed {seed}",
            check_short_test),
        cmd("primroot --fermat --seed {seed}",
            check_all_true("biconditional_holds", count=5)),
        cmd("table-errata", check_errata),
        cmd("verify-identities --max 300", check_identities),
        cmd("psi0-partition --x 1e3,3e3"),
        cmd("sums --formula mobius-phi-lcm --method both --x 1e3"),
        cmd("sums --formula log-lcm --method both --x 2e3"),
        cmd("large-sieve --x 5000 --Q 70 --sequence random --trials 20 --seed {seed}",
            check_large_sieve),
        cmd("ap-census --x 1e6 --q 12 --weighted"),
    ],
}
