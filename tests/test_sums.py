import math
import tracemalloc
from math import fsum, log

import numpy as np
import pytest

import oracles
from germain_lab import sums
from germain_lab.arith import mobius_sieve, totient_sieve
from germain_lab.constants import singular_series
from germain_lab.sums import (IDENTITIES, identity_residual_rows,
                              log_lcm_double_sum, mobius_phi_lcm_sum,
                              squarefree_harmonic_sums, twisted_mobius_sums)


def test_gcd_via_phi_examples():
    assert oracles.gcd_via_phi(1, 360) == 1
    assert oracles.gcd_via_phi(12, 18) == 6
    for p in (2, 3, 5, 97, 991):
        assert oracles.gcd_via_phi(p, p) == p


def test_identity_residuals_examples():
    assert oracles.lcm_reciprocal_identity_residual(1, 1) == 0
    assert oracles.lcm_reciprocal_identity_residual(12, 18) == 0
    assert oracles.phi_lcm_reciprocal_identity_residual(1, 1) == 0
    assert oracles.phi_lcm_reciprocal_identity_residual(4, 6) == 0


def test_identity_residuals_exhaustive_small():
    scalar = (lambda m, n: oracles.gcd_via_phi(m, n) - math.gcd(m, n),
              oracles.lcm_reciprocal_identity_residual,
              oracles.phi_lcm_reciprocal_identity_residual)
    assert len(scalar) == len(IDENTITIES)
    rows = list(identity_residual_rows(60))
    assert [m for m, _ in rows] == list(range(1, 61))
    for m, residuals in rows:
        for oracle, row in zip(scalar, residuals, strict=True):
            assert row.dtype == np.int64
            assert row.tolist() == [oracle(m, n) for n in range(1, 61)]
            assert not row.any()


def test_identity_residual_rows_rejects_top_below_one():
    with pytest.raises(ValueError):
        next(identity_residual_rows(0))


@pytest.mark.parametrize("top", [sums.IDENTITY_CAP + 1, 40_000])
def test_identity_residual_rows_refuse_top_above_the_cap_before_the_table(
        top, monkeypatch):
    # 40,000^2 is below arith's 2^31 limit: the table would be 6.4 GB of int32
    def no_table(limit):
        raise AssertionError("the phi table was built")

    monkeypatch.setattr(sums, "totient_sieve", no_table)
    with pytest.raises(ValueError, match=f"top {top} is above the cap "
                                         f"{sums.IDENTITY_CAP}: the phi table"):
        next(identity_residual_rows(top))
    rows = identity_residual_rows(sums.IDENTITY_CAP)  # the cap itself is taken
    with pytest.raises(AssertionError, match="the phi table was built"):
        next(rows)


def test_gcd_rows_from_divisors_equal_np_gcd():
    n = np.arange(1, sums.BRUTE_CAP + 1)
    for m in range(1, sums.BRUTE_CAP + 1):
        row = sums._gcd_row(m, sums.BRUTE_CAP)
        assert row.dtype == np.int64
        assert np.array_equal(row, np.gcd(m, n)), m


def test_log_lcm_smallest_case():
    expected = log(2) ** 2 / 2
    assert log_lcm_double_sum(2, "brute") == pytest.approx(expected, rel=1e-15)
    assert log_lcm_double_sum(2, "rearranged") == pytest.approx(expected, rel=1e-15)


def test_log_lcm_brute_matches_oracle():
    assert log_lcm_double_sum(50, "brute") == pytest.approx(
        oracles.log_lcm_brute(50), rel=1e-12)


def test_log_lcm_rearranged_matches_brute():
    for x in (50, 200):
        b = log_lcm_double_sum(x, "brute")
        r = log_lcm_double_sum(x, "rearranged")
        assert abs(r - b) <= 1e-9 * abs(b)


def test_log_lcm_relaxed_is_a_lower_envelope():
    # dropping the log(d*) offset only shrinks the positive inner sums
    for x in (50, 500):
        assert log_lcm_double_sum(x, "relaxed") < log_lcm_double_sum(x, "rearranged")


def test_log_lcm_growth_bounded_by_log_power():
    ratios = [log_lcm_double_sum(x, "rearranged") / log(x) ** 5
              for x in (100, 1000, 10 ** 4)]
    assert all(r < 0.15 for r in ratios)


def test_log_lcm_guards():
    with pytest.raises(ValueError):
        log_lcm_double_sum(1)
    with pytest.raises(ValueError):
        log_lcm_double_sum(3000, "brute")
    with pytest.raises(ValueError):
        log_lcm_double_sum(10, "nonsense")


def test_mobius_phi_lcm_smallest_case():
    expected = log(2) ** 2
    assert mobius_phi_lcm_sum(2, "brute") == pytest.approx(expected, rel=1e-15)
    assert mobius_phi_lcm_sum(2, "diagonalized") == pytest.approx(expected, rel=1e-15)


def test_mobius_phi_lcm_brute_matches_oracle():
    assert mobius_phi_lcm_sum(60, "brute") == pytest.approx(
        oracles.mobius_phi_lcm_brute(60), rel=1e-12)


def test_brute_phi_of_lcm_rows_equal_an_independent_table():
    # every squarefree m, the brute's rows, against phi read at lcm(m, n)
    # from a table to x^2
    x = 300
    table = totient_sieve(x * x)
    mu, phi = mobius_sieve(x), totient_sieve(x)
    n = np.arange(1, x + 1)
    for m in range(1, x + 1):
        if mu[m] == 0:
            continue
        row = sums._phi_lcm_row(m, phi)
        assert row.dtype == np.int64
        assert np.array_equal(row, table[np.lcm(m, n)]), m


def test_brute_double_sum_holds_no_table_beyond_x():
    # its rows read phi up to x only; a phi table to x^2 would be 16 MB
    tracemalloc.start()
    try:
        mobius_phi_lcm_sum(sums.BRUTE_CAP, "brute")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_mobius_phi_lcm_diagonalized_matches_brute():
    for x in (50, 100, 200):
        b = mobius_phi_lcm_sum(x, "brute")
        d = mobius_phi_lcm_sum(x, "diagonalized")
        assert abs(d - b) <= 1e-9 * abs(b)


def test_mobius_phi_lcm_single_square_shortcut_is_not_an_identity():
    # the "relaxed" single-square form overshoots badly; keeping it exact
    # requires the two-level regrouping used by "diagonalized"
    b = mobius_phi_lcm_sum(50, "brute")
    r = mobius_phi_lcm_sum(50, "relaxed")
    assert abs(r - b) > 0.5 * abs(b)


def test_method_equivalence_at_brute_cap():
    x = 2000
    s_b = log_lcm_double_sum(x, "brute")
    s_r = log_lcm_double_sum(x, "rearranged")
    assert abs(s_r - s_b) <= 1e-9 * abs(s_b)
    b_b = mobius_phi_lcm_sum(x, "brute")
    b_d = mobius_phi_lcm_sum(x, "diagonalized")
    assert abs(b_d - b_b) <= 1e-9 * abs(b_b)


def test_mobius_phi_lcm_positive_and_increasing():
    vals = [mobius_phi_lcm_sum(x, "diagonalized") for x in (100, 1000, 10 ** 4)]
    assert all(v > 0 for v in vals)
    assert vals[0] < vals[1] < vals[2]


def test_double_sums_symmetric_under_transposition():
    # the library iterates row-major; the oracle walks column-major
    b = mobius_phi_lcm_sum(60, "brute")
    assert b == pytest.approx(oracles.mobius_phi_lcm_brute(60), rel=1e-12)


def test_squarefree_harmonic_examples():
    at_1, at_10 = squarefree_harmonic_sums([1, 10])
    assert at_1 == 1.0
    assert at_10 == pytest.approx(171 / 70, abs=1e-14)  # 1,2,3,5,6,7,10


def test_squarefree_harmonic_residual_settles():
    # the residual against (6/pi^2) log x approaches a constant near 1.044
    xs = (10 ** 5, 10 ** 6)
    r5, r6 = (v - 6.0 / math.pi ** 2 * math.log(x)
              for x, v in zip(xs, squarefree_harmonic_sums(xs)))
    assert abs(r6) < 1.1
    assert abs(r6 - r5) < 1e-2


def test_each_single_sum_sieves_mu_once_and_cuts_it_at_every_checkpoint(
        monkeypatch, c2_1e6):
    # each value is the fsum of the same doubles summed per checkpoint from
    # a table of its own
    xs = [1, 2, 3, 4, 10, 99, 100, 1000, 4321, 10 ** 4]
    mu = sums.mobius_sieve(xs[-1])[1:]
    n = np.arange(1, xs[-1] + 1, dtype=np.float64)
    per_x = {
        sums.squarefree_harmonic_sums:
            lambda x: fsum((1.0 / n[:x])[mu[:x] != 0].tolist()),
        sums.mobius_log_sums: lambda x: fsum((mu[:x] * np.log(n[:x])).tolist()),
    }
    calls = []
    real = sums.mobius_sieve
    monkeypatch.setattr(sums, "mobius_sieve",
                        lambda limit: calls.append(limit) or real(limit))
    for single, oracle in per_x.items():
        calls.clear()
        assert single(xs) == [oracle(x) for x in xs]
        assert calls == [xs[-1]]
    calls.clear()
    sums.twisted_mobius_sums(6, xs, True, lambda: c2_1e6)
    assert calls == [xs[-1]]


def test_single_sums_equal_the_prefix_fsums_across_block_edges(c2_1e6):
    # the mu table is read a block at a time: checkpoints on and beside the
    # block edges see the fsum of every term up to them
    block = sums._BLOCK
    xs = [1, block - 1, block, block + 1, 2 * block, 3 * block + 7]
    mu = sums.mobius_sieve(xs[-1])[1:]
    phi = sums.totient_sieve(xs[-1])[1:]
    n = np.arange(1, xs[-1] + 1)
    logs = np.log(n.astype(np.float64))
    coprime = np.gcd(n, 6) == 1
    per_x = [
        (sums.squarefree_harmonic_sums(xs), lambda x: (1.0 / n[:x])[mu[:x] != 0]),
        (sums.mobius_log_sums(xs), lambda x: mu[:x] * logs[:x]),
        (sums.twisted_mobius_sums(6, xs, True, lambda: c2_1e6)[1],
         lambda x: (mu[:x] / phi[:x] * logs[:x])[coprime[:x]]),
    ]
    for values, terms in per_x:
        assert values == [fsum(terms(x).tolist()) for x in xs]


def _rosser_schoenfeld_pi(x):
    """An upper bound of the number of primes <= x (x > 1)."""
    return 1.25506 * x / math.log(x)


@pytest.mark.parametrize("x", [10 ** 6, 4 * 10 ** 6])
def test_single_sums_hold_their_tables_and_one_block_of_terms(x):
    # beside the tables, mu in one byte per integer and phi in four, only one
    # block's squarefree n and terms are alive (about 1.3 MB for a block of
    # 2^16 integers), and, while the tables are sieved, the int32 primes
    # above sqrt(x) and the multiples of at most half of them: never an
    # array over every squarefree n <= x
    block = 2 << 20
    primes = 6 * _rosser_schoenfeld_pi(x)
    for tables, call in ((x + 1, lambda: sums.mobius_log_sums([x])),
                         (5 * (x + 1), lambda: twisted_mobius_sums(6, [x], False, _no_c2))):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= tables + block + primes, (x, tables, peak)


def _no_c2():
    raise AssertionError("the C2 product was built")


def twisted_mobius_sum(m, x, with_log, c2=None):
    """The sum at the one checkpoint x."""
    _, [value] = twisted_mobius_sums(m, [x], with_log,
                                     (lambda: c2) if with_log else _no_c2)
    return value


def test_twisted_sum_examples(c2_1e6):
    assert twisted_mobius_sum(1, 1, True, c2_1e6) == 0.0
    v = twisted_mobius_sum(2, 10, False)
    assert v == pytest.approx(1 - 1 / 2 - 1 / 4 - 1 / 6, abs=1e-14)  # n in {1,3,5,7}


def test_twisted_sum_matches_brute_enumeration(c2_1e6):
    for m, x, with_log in ((2, 50, True), (3, 40, False), (6, 30, True)):
        brute = fsum(
            oracles.mobius_naive(n) * (log(n) if with_log else 1.0)
            / oracles.totient_brute(n)
            for n in range(1, x + 1)
            if math.gcd(n, m) == 1 and oracles.mobius_naive(n) != 0)
        assert twisted_mobius_sum(m, x, with_log, c2_1e6) == pytest.approx(brute, abs=1e-12)


def test_twisted_log_sum_approaches_singular_series_in_absolute_value(c2_1e6):
    target = singular_series(2, c2_1e6).value
    gaps = [abs(abs(twisted_mobius_sum(2, x, True, c2_1e6)) - target)
            for x in (10 ** 3, 10 ** 4, 10 ** 5)]
    assert gaps[-1] < gaps[0]
    assert all(g < 0.05 for g in gaps)
    # observed sign of the finite sums is negative throughout this range
    assert twisted_mobius_sum(2, 10 ** 4, True, c2_1e6) < 0


def test_plain_twisted_sum_tends_to_zero():
    assert abs(twisted_mobius_sum(2, 10 ** 5, False)) < 0.01


def test_twisted_sums_one_pass_equals_single_checkpoint_calls(c2_1e6):
    xs = [1, 2, 10, 99, 100, 1000]
    for m, with_log in ((1, True), (2, False), (6, True), (15, False)):
        make_c2 = (lambda: c2_1e6) if with_log else _no_c2
        target, values = twisted_mobius_sums(m, xs, with_log, make_c2)
        assert target == (singular_series(m, c2_1e6).value if with_log else 0.0)
        assert values == [twisted_mobius_sum(m, x, with_log, c2_1e6) for x in xs]


@pytest.mark.parametrize("m, xs, message", [
    (0, [100], "m must be >= 1, got 0"),
    (-3, [100], "m must be >= 1, got -3"),
    (2, [0, 100], "x must be >= 1, got 0"),
    (2, [100, -1], "x must be >= 1, got -1"),
])
def test_twisted_sums_refuse_before_the_c2_product(m, xs, message):
    with pytest.raises(ValueError, match=message):
        twisted_mobius_sums(m, xs, True, _no_c2)

