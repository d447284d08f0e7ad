"""Property tests of the pair parameters (x, a, b) against trial division.

The draws cover b <= 0, a*p + b < 2 and a + b even. derandomize=True makes
Hypothesis draw the same cases on every run, so the suite stays
deterministic.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from germain_lab import sieve
from germain_lab.counting import pair_sums
from germain_lab.sieve import pair_primes

I64 = 1 << 63
# from a*x + b = 2^50 on, the base primes up to its square root pass 2^25
PAIR_TOP = 1 << 50

xs = st.integers(min_value=2, max_value=3000)
slopes = st.integers(min_value=1, max_value=8)
offsets = st.integers(min_value=-60, max_value=60)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(x=xs, a=slopes, b=offsets)
def test_pairs_and_sums_match_the_oracles(x, a, b):
    expected = [p for p in oracles.primes_upto(x)
                if oracles.is_prime_trial(a * p + b)]
    assert pair_primes(x, a, b).tolist() == expected
    [(pi_g, psi_g, psi0)] = pair_sums([x], a, b)
    assert pi_g == len(expected)
    assert psi_g == pytest.approx(oracles.psi_pair_brute(x, a, b, 1), rel=1e-12)
    assert psi0 == pytest.approx(oracles.psi_pair_brute(x, a, b, 2), rel=1e-12)


@settings(derandomize=True, deadline=None)
@given(x=st.integers(max_value=1), a=slopes, b=offsets)
def test_x_below_two_is_refused(x, a, b):
    with pytest.raises(ValueError, match="x must be >= 2"):
        pair_primes(x, a, b)


@settings(derandomize=True, deadline=None)
@given(x=xs, a=st.integers(max_value=0), b=offsets)
def test_slope_below_one_is_refused(x, a, b):
    with pytest.raises(ValueError, match="a must be >= 1"):
        pair_primes(x, a, b)


@settings(derandomize=True, deadline=None)
@given(x=st.integers(min_value=2, max_value=1 << 40),
       excess=st.integers(min_value=0, max_value=1 << 40), b=offsets)
def test_companion_beyond_64_bits_is_refused_before_any_table(x, excess, b):
    # the smallest slope that puts a*x + b at or above 2^63, plus excess
    a = -(-(I64 - b) // x) + excess
    assert a * x + b >= I64
    no_table = AssertionError("a prime table was built")
    with mock.patch.object(sieve, "_primes", side_effect=no_table), \
            pytest.raises(ValueError, match="overflows the supported 64-bit range"):
        pair_primes(x, a, b)


@settings(derandomize=True, deadline=None)
@given(x=st.integers(min_value=2, max_value=1 << 40),
       excess=st.integers(min_value=0, max_value=1 << 12), b=offsets)
def test_companion_at_or_above_2_to_the_50_is_refused_before_any_table(x, excess, b):
    # the smallest slope that puts a*x + b at or above 2^50, plus excess,
    # which keeps it below 2^63, where the overflow refusal takes over
    a = -(-(PAIR_TOP - b) // x) + excess
    assert PAIR_TOP <= a * x + b < I64
    no_table = AssertionError("a prime table was built")
    with mock.patch.object(sieve, "_primes", side_effect=no_table), \
            pytest.raises(ValueError, match=r"a\*x\+b = \d+ is at or above 2\^50"):
        pair_primes(x, a, b)


# each admits a class mod 30, so its base primes up to 2^25 - 1 are built
@pytest.mark.parametrize("x,a,b", [(2, 2 ** 49 - 4, 7), (7, (PAIR_TOP - 11) // 7, 10),
                                   (1000, (PAIR_TOP - 624) // 1000, 623)])
def test_companion_just_below_2_to_the_50_is_admitted(x, a, b):
    assert a * x + b == PAIR_TOP - 1
    limits = []

    def no_base_primes(limit):
        limits.append(limit)
        return np.zeros(0, dtype=np.int64)

    with mock.patch.object(sieve, "_primes", side_effect=no_base_primes):
        pair_primes(x, a, b)
    assert limits == [2 ** 25 - 1]


# no class mod 30 is admissible: a and b odd make a*n + b even at every odd
# n, and a = 0 (mod 30) with b = 3 makes it a multiple of 3
@pytest.mark.parametrize("x,a,b,arrays", [
    pytest.param(x, a, b, arrays, id=f"{x}-{a}-{b}")
    for x, a, b, arrays in ((2, 2 ** 49 - 1, 1, [[]]), (7, (PAIR_TOP - 4) // 7, 3, [[]]),
                            (10 ** 6, 3, 1, [[2]]))])
def test_no_admissible_class_builds_no_base_primes(x, a, b, arrays):
    no_table = AssertionError("a prime table was built")
    with mock.patch.object(sieve, "_primes", side_effect=no_table):
        stream = list(sieve.pair_windows(x, a, b))
    assert [w.tolist() for w in stream] == arrays
    assert all(w.dtype == np.int64 for w in stream)
