import json
import math
import os
import random
import subprocess
import sys
from decimal import Decimal
from math import fsum
from pathlib import Path

import numpy as np
import pytest

import oracles
from germain_lab import constants, sieve
from germain_lab.arith import factorize
from germain_lab.cli import main
from germain_lab.constants import singular_series, twin_prime_constant
from germain_lab.summation import PrefixSums, add_terms, exact_sum

SRC = Path(__file__).resolve().parents[1] / "src"

# Classical twin-prime constant, prod_{p>=3} (1 - 1/(p-1)^2), OEIS A005597.
TRUE_C2 = 0.6601618158468695739278121100145


def test_single_factor_cutoff():
    v = twin_prime_constant(3)
    assert v.value == pytest.approx(0.75, abs=1e-15)
    assert v.d == 2
    assert twin_prime_constant(4).value == pytest.approx(0.75, abs=1e-15)


def test_cutoff_below_three_rejected():
    with pytest.raises(ValueError):
        twin_prime_constant(2)


def test_product_is_monotone_decreasing_in_cutoff():
    vals = [twin_prime_constant(c).value for c in (3, 10, 100, 10 ** 4, 10 ** 6)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("cutoff", [3, 10, 1000, 10 ** 4, 10 ** 6])
def test_value_within_tail_bound_of_true_constant(cutoff):
    v = twin_prime_constant(cutoff)
    assert abs(v.value - TRUE_C2) <= v.tail_bound


def test_successive_gaps_below_tail_bound():
    v4 = twin_prime_constant(10 ** 4)
    v6 = twin_prime_constant(10 ** 6)
    assert 0 < v4.value - v6.value < v4.tail_bound
    assert v6.tail_bound < v4.tail_bound


def _constants_report(capsys, *argv):
    assert main(["constants", "--format", "json", *argv]) == 0
    return capsys.readouterr().out


def test_thread_count_does_not_change_value(small_windows, capsys):
    a = _constants_report(capsys, "--cutoff", "1e6", "--threads", "1")
    b = _constants_report(capsys, "--cutoff", "1e6", "--threads", "3")
    assert max(small_windows) > 200
    assert a == b
    row = json.loads(a)["rows"][0]
    assert abs(row["value"] - TRUE_C2) <= row["tail_bound"]


def test_singular_series_odd_offsets_vanish(c2_1e6):
    assert singular_series(3, c2_1e6).value == 0.0
    assert singular_series(1, c2_1e6).value == 0.0


def test_singular_series_small_offsets(c2_1e6):
    g2 = singular_series(2, c2_1e6)
    assert g2.value == pytest.approx(2 * c2_1e6.value, rel=1e-15)
    g6 = singular_series(6, c2_1e6)
    assert g6.value == pytest.approx(4 * c2_1e6.value, rel=1e-15)
    assert g6.tail_bound == pytest.approx(4 * c2_1e6.tail_bound, rel=1e-12)
    with pytest.raises(ValueError):
        singular_series(0, c2_1e6)


def test_singular_series_exceeds_one_for_even_offsets(c2_1e6):
    for d in range(2, 10 ** 4 + 1, 2):
        g = singular_series(d, c2_1e6)
        assert g.value - g.tail_bound > 1.0


def test_singular_series_depends_only_on_odd_kernel(c2_1e6):
    rng = random.Random(424242)
    for _ in range(100):
        m = rng.randrange(1, 10 ** 6)
        kernel = 1
        for p, _ in factorize(m):
            if p > 2:
                kernel *= p
        assert singular_series(2 * m, c2_1e6).value == \
            singular_series(2 * kernel, c2_1e6).value


def test_printed_claim_matches_truncated_product_not_the_limit():
    # The widely quoted 0.6601618605898407... reproduces the p <= 1e6
    # partial product; the infinite product is smaller from the 8th digit.
    claim = 0.6601618605898407646766938915352060
    v6 = twin_prime_constant(10 ** 6).value
    assert abs(v6 - claim) < 5e-16
    assert abs(TRUE_C2 - claim) > 4e-8


def _recorded_partials(monkeypatch):
    """The list of partials each twin_prime_constant call reads from its PrefixSums."""
    partials = []

    class Recorded(PrefixSums):
        def sums(self):
            partials.append(super().sums())
            return partials[-1]

    monkeypatch.setattr(constants, "PrefixSums", Recorded)
    return partials


@pytest.mark.parametrize("window", [1 << 20, 37])
@pytest.mark.parametrize("threads", [1, 2])
def test_window_partials_are_the_correctly_rounded_window_sums(window, threads,
                                                               monkeypatch, capsys):
    # the partials are the fsums of the intervals 3 + step k <= p < 3 + step
    # (k+1) of the product's n-grid, step = 2 window, on which it is patched;
    # cutoffs on and beside the grid's edges
    step = 2 * window
    monkeypatch.setattr(constants, "_C2_STEP", step)
    partials = _recorded_partials(monkeypatch)
    ks = (1, 2) if window > 1000 else (1, 2, 27, 28, 100)
    for k in ks:
        for cutoff in (3 + step * k + d for d in (-2, 0, 2)):
            want = oracles.twin_prime_window_partials(cutoff, step)
            assert twin_prime_constant(cutoff).value == math.exp(fsum(want)), cutoff
            assert partials[-1] == want, cutoff
            report = _constants_report(capsys, "--cutoff", str(cutoff),
                                       "--threads", str(threads))
            row = json.loads(report)["rows"][0]
            assert row["value"] == math.exp(fsum(want)), cutoff


# C2 on and beside the grid's edges 3 + 2^21 k, k = 1, 2: on each edge, at
# the last prime below it and the first above it, and one below each.
# Recorded from the odd-integer tiling, whose windows ended at the same edges.
GRID_BITS = {
    2097142: "0x1.5200bb70aee21p-1", 2097143: "0x1.5200bb70ae8d9p-1",
    2097155: "0x1.5200bb70ae8d9p-1",
    2097168: "0x1.5200bb70ae8d9p-1", 2097169: "0x1.5200bb70ae391p-1",
    4194300: "0x1.5200bb15bb7a0p-1", 4194301: "0x1.5200bb15bb64ep-1",
    4194307: "0x1.5200bb15bb64ep-1",
    4194318: "0x1.5200bb15bb64ep-1", 4194319: "0x1.5200bb15bb4fcp-1",
}


@pytest.mark.parametrize("window", [37, 1 << 11, 1 << 20])
def test_c2_does_not_depend_on_the_sieve_windows(window, monkeypatch):
    # the pair window, and the plain-prime window of half as many entries,
    # tile the primes in any way: 37 gives class windows of 18 entries, 540
    # integers, whose edges fall nowhere near the grid's. At 37 the product
    # reads 31k arrays, so it runs once, across the first edge
    monkeypatch.setattr(sieve, "PAIR_WINDOW", window)
    cutoffs = [2097169] if window < 1000 else GRID_BITS
    for cutoff in cutoffs:
        assert twin_prime_constant(cutoff).value.hex() == GRID_BITS[cutoff], cutoff


@pytest.mark.parametrize("cutoff,bits", [
    (10 ** 6, "0x1.5200bc4299899p-1"),
    (10 ** 7, "0x1.5200bae37dd04p-1"),
    (10 ** 8, "0x1.5200bac530044p-1"),
])
def test_c2_keeps_its_bits(cutoff, bits):
    # the doubles of the odd-integer tiling, which cut the product at the
    # same edges 3 + 2^21 k
    assert twin_prime_constant(cutoff).value.hex() == bits


@pytest.mark.parametrize("cutoff", [10 ** 6, 10 ** 7])
def test_c2_within_an_ulp_of_the_decimal_product(cutoff):
    # an independent evaluation of the same finite product at 40 digits
    exact = oracles.twin_prime_product_decimal(cutoff)
    value = twin_prime_constant(cutoff).value
    assert abs(Decimal(value) - exact) <= Decimal(math.ulp(value))


@pytest.mark.parametrize("primes", [
    [], [3], [3, 5, 7], [2 ** 31 - 1, 9_999_999_967],
    [p for p in oracles.primes_upto(20_000) if p > 2],
])
def test_segment_log_sum_in_place_is_the_expression_it_replaced(primes):
    # the in-place steps must be the same IEEE operations, in the same order,
    # and a segment's sum through add_terms, as the product takes it, the
    # fsum of the expression's terms
    ps = np.array(primes, dtype=np.int64)
    pm1 = ps.astype(np.float64) - 1.0
    want = np.log1p(-1.0 / (pm1 * pm1))
    [terms] = constants._log_terms(ps)
    assert terms.tolist() == want.tolist()
    segment = PrefixSums(1)
    add_terms(segment, ps, constants._log_terms, [ps.size])
    assert segment.sums() == [exact_sum(want)]
    assert ps.tolist() == primes  # the primes are not written


def _minor_faults(argv):
    """ru_minflt of a fresh CLI process that runs argv; its output is dropped."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    child = subprocess.Popen([sys.executable, "-m", "germain_lab.cli", *argv],
                             env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    assert child.returncode == 0, argv
    return usage.ru_minflt


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="no os.wait4 to count faults")
def test_c2_page_faults_do_not_grow_with_the_cutoff():
    # 48 windows at 10^8 against one at 10^6: a window-sized float array
    # given back to the system and faulted in again per window took 34k
    # more minor faults at 10^8; one window's slices take under 1k
    small = _minor_faults(["constants", "--cutoff", "1e6"])
    if small == 0:
        pytest.skip("os.wait4 reports no minor page faults here")
    assert _minor_faults(["constants", "--cutoff", "1e8"]) - small < 2000
