import numpy as np
import pytest

import oracles
from germain_lab.arith import factorize
from germain_lab.sieve import is_prime, prime_flags, primes_in, primes_upto


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


def test_primes_in_textbook_ranges():
    assert primes_in(2, 30).primes.tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_in(90, 100).primes.tolist() == [97]


def test_primes_in_counts_match_trial_division():
    got = primes_in(2, 10 ** 4).primes.tolist()
    assert got == oracles.primes_upto(10 ** 4)


def test_primes_in_far_segment_agrees_with_is_prime():
    lo, hi = 10 ** 8, 10 ** 8 + 100
    got = primes_in(lo, hi).primes.tolist()
    assert got == [n for n in range(lo, hi + 1) if is_prime(n)]
    assert got  # the window is not empty of primes


def test_primes_in_thread_count_does_not_change_output():
    one = primes_in(2, 10 ** 6, segment_size=1 << 14, threads=1)
    par = primes_in(2, 10 ** 6, segment_size=1 << 14, threads=3)
    assert np.array_equal(one.primes, par.primes)


def test_primes_in_rejects_bad_ranges():
    with pytest.raises(ValueError):
        primes_in(30, 2)
    with pytest.raises(ValueError):
        primes_in(0, 10)


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
    assert prime_flags(100)[97] and not prime_flags(100)[91]
