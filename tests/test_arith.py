import math
import random

import pytest

import oracles
from germain_lab.arith import (divisors, lambda_divisor_identity_residual,
                               mertens, mobius, mobius_log_sum, mobius_sieve,
                               totient, totient_sieve, von_mangoldt)


def test_mobius_examples():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(12) == 0
    with pytest.raises(ValueError):
        mobius(0)


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
    for n in range(1, 2000):
        assert mobius(n) == oracles.mobius_naive(n)
        assert totient(n) == oracles.totient_brute(n)
        assert von_mangoldt(n) == pytest.approx(
            oracles.von_mangoldt_naive(n), abs=1e-14)


def test_sieved_tables_match_point_functions():
    mu = mobius_sieve(3000)
    phi = totient_sieve(3000)
    for n in range(1, 3001):
        assert mu[n] == mobius(n)
        assert phi[n] == totient(n)


def test_multiplicativity_on_random_coprime_pairs():
    rng = random.Random(20240917)
    done = 0
    while done < 1000:
        a = rng.randrange(1, 10 ** 4)
        b = rng.randrange(1, 10 ** 4)
        if math.gcd(a, b) != 1:
            continue
        assert mobius(a * b) == mobius(a) * mobius(b)
        assert totient(a * b) == totient(a) * totient(b)
        done += 1


def test_totient_divisor_sum_identity():
    for n in range(1, 10 ** 4 + 1):
        assert sum(totient(d) for d in divisors(n)) == n


def test_divisors_match_naive():
    for n in (1, 2, 12, 97, 360, 1024, 99991):
        assert sorted(divisors(n)) == oracles.divisors_naive(n)


def test_mertens_small_values():
    assert mertens(1) == 1
    assert mertens(10) == -1
    with pytest.raises(ValueError):
        mertens(0)


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
    assert mertens(10 ** 6) == acc == 212


def test_mobius_log_sum_small():
    assert mobius_log_sum(1).value == 0.0
    v = mobius_log_sum(4).value
    assert v == pytest.approx(-math.log(2) - math.log(3), rel=1e-14)


def test_mobius_log_sum_ratio_trend():
    ratios = [mobius_log_sum(x).ratio for x in (10 ** 4, 10 ** 5, 10 ** 6)]
    assert ratios[0] > ratios[1] > ratios[2]


def test_lambda_divisor_identity_examples():
    assert lambda_divisor_identity_residual(1) == 0.0
    assert lambda_divisor_identity_residual(8) <= 1e-12
    assert lambda_divisor_identity_residual(30) <= 1e-12


def test_lambda_divisor_identity_full_range():
    worst = max(lambda_divisor_identity_residual(n)
                for n in range(1, 10 ** 5 + 1))
    assert worst <= 1e-12
