import math

import numpy as np
import pytest

import oracles
from germain_lab import sieve
from germain_lab.arith import factorize
from germain_lab.sieve import is_prime, prime_powers, primes_upto


def test_spf_prime_count_at_1e6():
    count = len(primes_upto(10 ** 6))
    assert count == 78498
    assert count == sum(oracles.sieve_flags(10 ** 6))


def test_factorization_roundtrip():
    flags = oracles.sieve_flags(10 ** 5)
    for n in range(1, 10 ** 5 + 1):
        prod = 1
        for p, e in factorize(n):
            assert flags[p]
            prod *= p ** e
        assert prod == n


def test_is_prime_agrees_with_spf_classification():
    flags = oracles.sieve_flags(10 ** 5)
    for n in range(2, 10 ** 5 + 1):
        assert is_prime(n) == bool(flags[n])


def test_is_prime_examples():
    assert is_prime(2309)
    assert not is_prime(2697)  # 3 * 29 * 31
    assert not is_prime(1)
    assert not is_prime(0)


def test_is_prime_matches_trial_division_on_a_range():
    for n in range(2, 5000):
        assert is_prime(n) == oracles.is_prime_trial(n)


def test_is_prime_strong_pseudoprimes_and_large_values():
    assert not is_prime(2047)            # 23 * 89, fools base 2 alone
    assert not is_prime(3215031751)      # classic 4-base pseudoprime
    assert is_prime((1 << 61) - 1)       # Mersenne prime
    assert not is_prime((1 << 64) - 1)


def test_is_prime_domain():
    with pytest.raises(ValueError):
        is_prime(-1)
    with pytest.raises(ValueError):
        is_prime(1 << 64)


def test_primes_upto_matches_oracle():
    assert primes_upto(1000).tolist() == oracles.primes_upto(1000)


def test_primes_upto_beyond_one_default_window():
    # pi(10^7) = 664579 (OEIS A006880); 10^7 spans five windows of 2^21
    assert len(primes_upto(10 ** 7)) == 664579


@pytest.mark.parametrize("window", [1, 2, 37, 256])
def test_primes_upto_across_window_edges(window, monkeypatch):
    # window odd n per window, so the windows start at 3 + 2 * window * k
    monkeypatch.setattr(sieve, "PAIR_WINDOW", window)
    edges = {3 + 2 * window * k + d for k in (1, 2, 3) for d in (-2, -1, 0, 1)}
    for limit in sorted(edges | {0, 1, 2, 3, 4, 2000}):
        got = primes_upto(limit)
        assert got.dtype == np.int64
        assert got.tolist() == oracles.primes_upto(limit)


def test_primes_upto_rejects_negative_limit():
    with pytest.raises(ValueError):
        primes_upto(-1)


def test_prime_powers_match_brute_scan():
    spf = oracles.smallest_prime_factors(10 ** 4)
    brute = []
    for n in range(4, 10 ** 4 + 1):
        p, m = spf[n], n
        while m % p == 0:
            m //= p
        if m == 1 and n != p:
            brute.append((n, math.log(p)))
    for x in (-1, 0, 1, 3, 4, 7, 8, 9, 10 ** 4):
        assert prime_powers(x) == [t for t in brute if t[0] <= x]
