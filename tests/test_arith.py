import math
import random
import tracemalloc
from math import fsum

import numpy as np
import pytest

import oracles
from germain_lab import arith
from germain_lab.arith import (divisors, factorize, mobius_sieve,
                               totient, totient_sieve)
from germain_lab.sums import mobius_log_sums
from oracles import von_mangoldt


def test_mobius_examples():
    mu = mobius_sieve(12)
    assert mu[1] == 1
    assert mu[6] == 1
    assert mu[12] == 0


def test_von_mangoldt_examples():
    assert von_mangoldt(8) == pytest.approx(math.log(2), rel=1e-15)
    assert von_mangoldt(6) == 0.0
    assert von_mangoldt(97) == pytest.approx(math.log(97), rel=1e-15)
    assert von_mangoldt(1) == 0.0
    with pytest.raises(ValueError):
        von_mangoldt(0)


def test_totient_examples():
    assert totient(1) == 1
    assert totient(9) == oracles.totient_brute(9) == 6
    assert totient(2 ** 10) == 512
    with pytest.raises(ValueError):
        totient(0)


def test_point_functions_match_naive_oracles():
    mu = mobius_sieve(1999)
    for n in range(1, 2000):
        assert mu[n] == oracles.mobius_naive(n)
        assert totient(n) == oracles.totient_brute(n)
        assert von_mangoldt(n) == pytest.approx(
            oracles.von_mangoldt_naive(n), abs=1e-14)


def test_sieved_tables_match_point_functions():
    mu = mobius_sieve(3000)
    phi = totient_sieve(3000)
    for n in range(1, 3001):
        assert mu[n] == oracles.mobius_naive(n)
        assert phi[n] == totient(n)


def test_multiplicativity_on_random_coprime_pairs():
    rng = random.Random(20240917)
    done = 0
    while done < 1000:
        a = rng.randrange(1, 10 ** 4)
        b = rng.randrange(1, 10 ** 4)
        if math.gcd(a, b) != 1:
            continue
        assert oracles.mobius_naive(a * b) == (oracles.mobius_naive(a)
                                               * oracles.mobius_naive(b))
        assert totient(a * b) == totient(a) * totient(b)
        done += 1


def test_totient_divisor_sum_identity():
    for n in range(1, 10 ** 4 + 1):
        assert sum(totient(d) for d in divisors(factorize(n))) == n


def test_divisors_match_naive():
    for n in (1, 2, 12, 97, 360, 1024, 99991):
        assert sorted(divisors(factorize(n))) == oracles.divisors_naive(n)


def _mertens(mu, x):
    """M(x) = sum_{n<=x} mu(n), exact, from a sieved mu table."""
    return int(mu[1:x + 1].astype(np.int64).sum())


def test_mertens_small_values():
    mu = mobius_sieve(10)
    assert _mertens(mu, 1) == 1
    assert _mertens(mu, 10) == -1


def test_mertens_1e6_against_spf_walk():
    # independent second pass: accumulate mu by explicit spf factorization
    spf = oracles.smallest_prime_factors(10 ** 6)
    acc = 0
    for n in range(1, 10 ** 6 + 1):
        m, sign, square = n, 1, False
        while m > 1:
            p = spf[m]
            m //= p
            if m % p == 0:
                square = True
                break
            sign = -sign
        if not square:
            acc += sign
    assert _mertens(mobius_sieve(10 ** 6), 10 ** 6) == acc == 212


def test_mobius_log_sum_small():
    at_1, at_4 = mobius_log_sums([1, 4])
    assert at_1 == 0.0
    assert at_4 == pytest.approx(-math.log(2) - math.log(3), rel=1e-14)


def test_mobius_log_sum_ratio_trend():
    xs = (10 ** 4, 10 ** 5, 10 ** 6)
    ratios = [abs(v) / x for x, v in zip(xs, mobius_log_sums(xs))]
    assert ratios[0] > ratios[1] > ratios[2]


def _lambda_identity_residual(n, mu):
    """|Lambda(n) + sum_{d|n} mu(d) log d|: the point von_mangoldt against the
    sieved mu; zero up to rounding for every n."""
    return abs(von_mangoldt(n) + fsum(int(mu[d]) * math.log(d)
                                      for d in divisors(factorize(n))
                                      if d > 1 and mu[d]))


def test_lambda_divisor_identity_examples():
    mu = mobius_sieve(30)
    assert _lambda_identity_residual(1, mu) == 0.0
    assert _lambda_identity_residual(8, mu) <= 1e-12
    assert _lambda_identity_residual(30, mu) <= 1e-12


def test_lambda_divisor_identity_full_range():
    mu = mobius_sieve(10 ** 5)
    worst = max(_lambda_identity_residual(n, mu) for n in range(1, 10 ** 5 + 1))
    assert worst <= 1e-12


def test_totient_sieve_works_in_place():
    # each prime updates a view of phi in place, with no strided copy or quotient
    tracemalloc.start()
    try:
        phi = totient_sieve(10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * phi.nbytes


SPLIT_LIMITS = sorted({*range(301), 10 ** 6,
                       *(p * p + d for p in oracles.primes_upto(100) for d in (-1, 0, 1))})


def test_split_sieves_equal_the_per_prime_loop():
    # the primes above sqrt(limit) are applied one cofactor at a time;
    # limits on and beside p^2 move a prime across that split
    # mu in one byte, phi in four: the int64 oracle holds the same values
    for limit in SPLIT_LIMITS:
        for got, want, dtype in (
                (mobius_sieve(limit), oracles.mobius_sieve_per_prime(limit), np.int8),
                (totient_sieve(limit), oracles.totient_sieve_per_prime(limit), np.int32)):
            assert got.dtype == dtype
            assert np.array_equal(got, want), limit


def test_totient_sieve_edge_limits():
    for limit in (0, 1, 2, 10):
        assert totient_sieve(limit).tolist() == [0] + [
            oracles.totient_brute(n) for n in range(1, limit + 1)]


def test_sieves_refuse_a_limit_of_2_to_the_31_before_any_allocation(monkeypatch):
    # every phi(n) and index n of the tables fits int32 only below 2^31
    def no_primes(limit):
        raise AssertionError("the primes were sieved")

    monkeypatch.setattr(arith, "primes_upto", no_primes)
    for sieve_table in (totient_sieve, mobius_sieve):
        for limit in (2 ** 31, 10 ** 12):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="at or above the sieves' cap 2"):
                    sieve_table(limit)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 10_000, (sieve_table.__name__, limit, peak)
    # the largest limit admitted, and so the largest phi(n) and index, is
    # int32's largest value
    assert arith.SIEVE_LIMIT_CAP - 1 == np.iinfo(arith.PHI_DTYPE).max
