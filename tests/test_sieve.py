import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    flags = oracles.sieve_flags(10 ** 6)
    assert [is_prime(n) for n in range(10 ** 6 + 1)] == [bool(f) for f in flags]


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


# psi_k, the least odd composite that is a strong probable prime to each of
# the first k prime bases, k = 1..12 (OEIS A014233), with a factorization of
# each value below 2^64.
PSI = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051,
       3825123056546413051, 3825123056546413051, 318665857834031151167461]
PSI_FACTORS = {
    2047: (23, 89), 1373653: (829, 1657), 25326001: (2251, 11251),
    3215031751: (151, 751, 28351), 2152302898747: (6763, 10627, 29947),
    3474749660383: (1303, 16927, 157543), 341550071728321: (10670053, 32010157),
    3825123056546413051: (149491, 747451, 34233211),
}
BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def strong_probable_prime(n, a):
    """Does odd n > a pass the strong Fermat test to base a?"""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def leading_bases_fooled(n):
    k = 0
    while k < len(BASES) and strong_probable_prime(n, BASES[k]):
        k += 1
    return k


def test_psi_bounds_are_tight_composites():
    for k, psi in enumerate(PSI, 1):
        # psi_k fools the first k bases, and exactly as many as share its value
        assert leading_bases_fooled(psi) == max(j for j, v in enumerate(PSI, 1)
                                                if v == psi) >= k
        if psi < 1 << 64:
            assert math.prod(PSI_FACTORS[psi]) == psi
            assert not is_prime(psi)


def test_witness_tiers_stop_at_psi():
    tiers = sieve._MR_TIERS
    assert [k for _, k in tiers] == [1, 2, 3, 4, 5, 6, 7, 9, 12]
    for bound, k in tiers[:-1]:
        assert bound == PSI[k - 1]
    assert tiers[-1][0] == 1 << 64 < PSI[11]


def test_is_prime_at_the_primes_around_each_tier_bound():
    def oracle(n):
        if n < 10 ** 10:
            return oracles.is_prime_trial(n)
        return n % 2 == 1 and all(strong_probable_prime(n, a) for a in BASES)

    top = (1 << 64) - 59  # the largest prime below 2^64
    assert oracle(top)
    assert [is_prime(n) for n in range(top, 1 << 64)] == [True] + [False] * 58
    for bound in sorted(set(PSI[:9])):
        below = bound - 1
        while not oracle(below):
            below -= 1
        above = bound + 1
        while not oracle(above):
            above += 1
        for n in range(below, above + 1):
            assert is_prime(n) == oracle(n), n


def test_is_prime_below_and_at_the_bases_and_at_their_multiples():
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    assert [n for n in range(38) if is_prime(n)] == list(bases)
    for p in bases:
        for k in (2, 3, 41, 10 ** 6 + 3, 2 ** 40 + 15, ((1 << 64) - 1) // p):
            assert not is_prime(p * k), (p, k)


def test_is_prime_domain():
    with pytest.raises(ValueError):
        is_prime(-1)
    with pytest.raises(ValueError):
        is_prime(1 << 64)


def test_primes_upto_matches_oracle():
    assert primes_upto(1000).tolist() == oracles.primes_upto(1000)


def test_primes_upto_beyond_one_default_window():
    # pi(10^7) = 664579 (OEIS A006880); 10^7 spans two windows of 30 * 2^19
    assert len(primes_upto(10 ** 7)) == 664579


@pytest.mark.parametrize("window", [1, 2, 37, 256])
def test_primes_upto_across_window_edges(window, monkeypatch):
    # max(1, window // 2) entries of each class mod 30 per window, so the
    # windows start at multiples of 30 times as many integers
    monkeypatch.setattr(sieve, "PAIR_WINDOW", window)
    edges = {30 * max(1, window // 2) * k + d for k in (1, 2, 3) for d in (-2, -1, 0, 1)}
    for limit in sorted(edges | {0, 1, 2, 3, 4, 2000}):
        got = primes_upto(limit)
        assert got.dtype == np.int64
        assert got.tolist() == oracles.primes_upto(limit)


@pytest.mark.parametrize("window", [1, 37, 1 << 11])
def test_prime_windows_against_trial_division(window, monkeypatch):
    # [2, 3, 5] first, which the wheel of 30 decides apart; then, class by
    # class, each class c prime to 30 in its windows: window k holds its
    # primes n = c + 30 i with k w <= i < (k+1) w, w = max(1, window // 2)
    monkeypatch.setattr(sieve, "PAIR_WINDOW", window)
    w = max(1, window // 2)
    classes = [c for c in range(30) if math.gcd(c, 30) == 1]
    edges = {30 * w * k + d for k in (1, 2, 3) for d in (-2, -1, 0, 1, 2)}
    primes = [n for n in range(7, max(edges) + 1) if oracles.is_prime_trial(n)]
    for limit in sorted(edges | {0, 1, 2, 3, 4, 5, 6, 7, 48, 49, 50}):
        first, *windows = sieve.prime_windows(limit)
        assert first.dtype == np.int64
        assert first.tolist() == [p for p in (2, 3, 5) if p <= limit]
        want = [[p for p in primes if p % 30 == c and 30 * w * k <= p - c < 30 * w * (k + 1)
                 and p <= limit]
                for c in classes for k in range(limit // 30 // w + 1)
                if c + 30 * w * k <= limit]
        assert all(got.dtype == np.int64 for got in windows)
        assert [got.tolist() for got in windows] == want, limit


def test_primes_upto_rejects_negative_limit():
    with pytest.raises(ValueError):
        primes_upto(-1)


def test_every_plain_prime_path_refuses_a_negative_limit():
    # prime_windows refuses at the call, before the first array is asked for
    for call in (sieve.prime_windows, sieve._primes):
        with pytest.raises(ValueError, match="limit must be nonnegative"):
            call(-5)


def test_every_plain_prime_path_refuses_a_limit_at_or_above_2_to_the_50(monkeypatch):
    # _sieve, not _primes, is stubbed: primes_upto reads _primes by name, and
    # every sieve, of the base primes too, starts in _sieve
    def no_sieve(*args):
        raise AssertionError("a sieve started")

    monkeypatch.setattr(sieve, "_sieve", no_sieve)
    message = "is at or above 2\\^50: the base primes"
    for call in (sieve.prime_windows, sieve._primes, primes_upto):
        for limit in (2 ** 50, 2 ** 70):
            with pytest.raises(ValueError, match=message):
                call(limit)
    with pytest.raises(ValueError, match=message):
        prime_powers(2 ** 99, 2, 0)  # a*x + b = 2^100, limit isqrt = 2^50
    # just below, the limit reaches the sieve
    with pytest.raises(AssertionError, match="a sieve started"):
        sieve.prime_windows(2 ** 50 - 1)


@pytest.mark.parametrize("x", [1, 10])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_prime_powers_refuse_a_below_one_before_any_window(x, monkeypatch):
    def no_window(limit):
        raise AssertionError("a prime window was asked for")

    monkeypatch.setattr(sieve, "prime_windows", no_window)
    for a in (0, -3):
        with pytest.raises(ValueError, match=f"a must be >= 1, got {a}"):
            prime_powers(x, a, 5)


def test_pair_rows_are_built_once_not_per_class():
    # x = 3 admits at most two pairs, yet the rows cover the 136,204 base
    # primes up to sqrt(3a + 7) ~ 1.8e6. Per base prime, the sieve holds
    # at most 9 int64 entries at its peak, in _form_rows as it builds the
    # form's rows: the base primes (1), the form's l, first n and inverses
    # (3), alpha (1) and beta's transients, 73 bytes traced with a bool mask
    # of 1 byte. _rows then joins the rows one field at a time: at most 5
    # entries beside the base primes, where joining every field at once
    # beside the forms' own rows peaked at 89 bytes. One class's j and
    # start (2), and the strike's transients, come only after _rows returns
    # and its transients are gone. So 12 entries, 96 bytes, bound it; rows
    # built for every class at once, two int64 arrays per class, peaked at
    # 193 bytes
    x, a, b = 3, 2 ** 40 - 4, 7
    primes = sieve._primes(math.isqrt(a * x + b)).size
    list(sieve.pair_windows(100, 2, 1))  # numpy's lazy set-up is not the sieve's
    tracemalloc.start()
    try:
        assert [w.tolist() for w in sieve.pair_windows(x, a, b)] == [[], []]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert primes == 136_204
    assert peak < 12 * 8 * primes


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
        assert prime_powers(x, 1, 0) == prime_powers(x)


def _pairs_by_trial_division(x, a, b):
    return [p for p in oracles.primes_upto(x) if oracles.is_prime_trial(a * p + b)]


@pytest.mark.parametrize("a,b,pairs", [
    (1, -29, {31}),      # 31 - 29 = 2
    (1, -26, {29, 31}),  # 29 - 26 = 3, 31 - 26 = 5
    # 7 divides a and b, so its row strikes every n from a*n + b >= 49 on:
    # only that start leaves 11, whose companion is 7, unstruck
    (7, -70, {11}),
    (14, -147, {11}),
    # the companion 7 of the wheel primes 2 and 3, which is_prime proves
    (7, -7, {2}),
    (7, -14, {3}),
])
def test_pairs_whose_companion_is_a_small_prime(a, b, pairs, monkeypatch):
    # the companions 2, 3 and 5 share a factor with every modulus of 30
    for window in (1, 37, 1 << 20):
        monkeypatch.setattr(sieve, "PAIR_WINDOW", window)
        got = sieve.pair_primes(1000, a, b).tolist()
        assert got == _pairs_by_trial_division(1000, a, b)
        assert pairs <= set(got)


@pytest.mark.parametrize("a", [15, 30])
@pytest.mark.parametrize("b", [1, 7, -7, 2, 3, -3, 5, 6, 10, 15, -15, -29])
def test_pair_sieve_with_slopes_divisible_by_2_3_and_5(a, b, monkeypatch):
    # b coprime to a, and b sharing 2, 3, 5 or all of a's primes with it
    for window in (1, 37, 1 << 20):
        monkeypatch.setattr(sieve, "PAIR_WINDOW", window)
        assert sieve.pair_primes(3000, a, b).tolist() == \
            _pairs_by_trial_division(3000, a, b)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(a=st.one_of(st.integers(1, 30), st.sampled_from([7, 14, 21, 35, 49, 70, 210])),
       b=st.one_of(st.integers(-60, 60), st.integers(-12, 12).map(lambda k: 7 * k)),
       x=st.integers(2, 2500), window=st.sampled_from([1, 5, 37, 1 << 20]))
@example(a=1, b=4, x=3, window=1 << 20)     # the companion 7 of n = 3
@example(a=1, b=4, x=2500, window=37)
@example(a=14, b=3, x=2500, window=5)      # 7 | a: 7 divides no companion
@example(a=2, b=-21, x=2500, window=1)     # 7 | b: n = 0 (mod 7) alone
@example(a=7, b=-70, x=1000, window=37)    # both: only the companion 7, at 11
@example(a=2, b=-1, x=60, window=1 << 20)  # values up to 119 need no row on 210
def test_pair_sieve_against_trial_division(a, b, x, window):
    # the wheel follows the forms: 210 where the values are multiples of 7
    # at two or more n mod 7, 30 otherwise, and the first array holds the n
    # with a companion that is a wheel prime
    with mock.patch.object(sieve, "PAIR_WINDOW", window):
        got = sieve.pair_primes(x, a, b)
    assert got.dtype == np.int64
    assert got.tolist() == _pairs_by_trial_division(x, a, b)


def _first_of_one_array_per_class(stream, forms, wheel, classes):
    """The first array of stream(10^4), as a list, once each array after it
    is checked to be one class c mod the wheel with every a*c + b prime to
    it, in ascending order of c: one window per class at 10^4."""
    first, *arrays = stream(10 ** 4)
    residues = [set((array % wheel).tolist()) for array in arrays]
    assert all(len(r) == 1 for r in residues)
    want = [c for c in range(wheel)
            if all(math.gcd(a * c + b, wheel) == 1 for a, b in forms)]
    assert len(want) == classes
    assert [r.pop() for r in residues] == want
    return first.tolist()


@pytest.mark.parametrize("stream,forms,wheel,classes", [
    (sieve.prime_windows, [(1, 0)], 30, 8),
    (lambda x: sieve.pair_windows(x, 2, 1), [(1, 0), (2, 1)], 210, 15),
])
def test_plain_primes_keep_8_classes_mod_30_and_germain_pairs_take_15_mod_210(
        stream, forms, wheel, classes):
    assert _first_of_one_array_per_class(stream, forms, wheel, classes) == [2, 3, 5]


@pytest.mark.parametrize("a,b,apart", [(14, 3, [2, 5]), (2, -21, [13])])
def test_pair_forms_with_one_root_mod_7_keep_6_classes_mod_30(a, b, apart):
    # 7 | a or 7 | b: the values are multiples of 7 at n = 0 (mod 7) alone,
    # the wheel's second branch; apart holds the n with a value in 2, 3, 5
    stream = lambda x: sieve.pair_windows(x, a, b)
    assert _first_of_one_array_per_class(stream, [(1, 0), (a, b)], 30, 6) == apart


@pytest.mark.parametrize("window", [1, 37, 256])
def test_pair_sieve_at_window_edges(window, monkeypatch):
    # a window of the pair sieve holds window integers of each class mod
    # its wheel, 210 for each of these forms, so its boundaries are at
    # multiples of 210 * window
    monkeypatch.setattr(sieve, "PAIR_WINDOW", window)
    edges = {210 * window * k + d for k in (1, 2, 3) for d in range(-2, 3)}
    top = max(edges)
    for a, b in [(2, 1), (4, 3), (2, -1)]:
        assert sieve._wheel([(1, 0), (a, b)])[0] == 210
        expected = _pairs_by_trial_division(top, a, b)
        for x in sorted(edges | {2, 3, 5, 7, 29, 30, 31, 209, 210, 211}):
            got = sieve.pair_primes(x, a, b)
            assert got.dtype == np.int64
            assert got.tolist() == [p for p in expected if p <= x]


def test_germain_prime_count_at_1e8():
    # 423140 Sophie Germain primes p <= 10^8 (OEIS A092816)
    assert len(sieve.pair_primes(10 ** 8)) == 423140
