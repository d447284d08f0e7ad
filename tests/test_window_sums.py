"""The pair sums stream the sieve's windows through an exact slice reduction.

summation.prefix_slices turns a window's terms, of either sign, into a few
doubles per cut whose exact sum is the prefix's; fsum of those, across
windows, must be the fsum of the whole prefix bit for bit. derandomize=True
makes Hypothesis draw the same cases on every run.
"""

import math
import tracemalloc
from math import fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from germain_lab import sieve, summation
from germain_lab.counting import pair_sums, reciprocal_sums
from germain_lab.summation import exact_sum, prefix_slices

# zeros, doubles across 2^-40 .. 2^40, and ties: 1 + j 2^-52 is a half-ulp
# away from the rounding boundary of many of their sums
positive = st.one_of(
    st.just(0.0),
    st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True),
              st.integers(-40, 40)),
    st.builds(lambda j, e: math.ldexp(1.0 + j * 2.0 ** -52, e),
              st.integers(0, 7), st.integers(-40, 40)),
)
# either sign: cancellation leaves sums far below the terms
signed = st.builds(lambda t, negative: -t if negative else t,
                   positive, st.booleans())

# terms of one binade: their slices are all about as large as the window's
# top, so their sums come closest to the 53 bits a slice may carry
one_binade = st.builds(lambda ms, e: [math.ldexp(m, e) for m in ms],
                       st.lists(st.floats(1.0, 2.0, exclude_max=True), max_size=300),
                       st.integers(-40, 40))
signed_binade = st.builds(lambda t, signs: [-v if s else v for v, s in zip(t, signs)],
                          one_binade, st.lists(st.booleans(), min_size=300,
                                               max_size=300))


def _check_windows(t, edges, cuts_of):
    """fsum of the slices of the windows t[lo:hi] below each cut == fsum(t[:k])."""
    carry = []
    for lo, hi in zip(edges, edges[1:]):
        cuts = cuts_of(hi - lo)
        parts = prefix_slices(np.array(t[lo:hi], dtype=np.float64), cuts)
        for k, part in zip(cuts, parts):
            assert fsum(carry + part) == fsum(t[:lo + k]), (lo, k)
        carry += parts[-1]
    assert fsum(carry) == fsum(t) == exact_sum(np.array(t, dtype=np.float64))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(t=st.one_of(st.lists(positive, max_size=200), one_binade,
                   st.lists(signed, max_size=200), signed_binade),
       data=st.data())
def test_window_slices_give_the_prefix_fsum_at_every_cut(t, data):
    inner = data.draw(st.sets(st.integers(0, len(t)), max_size=4))
    edges = sorted(inner | {0, len(t)})
    # cuts at both window edges, and anywhere between
    _check_windows(t, edges, lambda size: sorted(
        data.draw(st.sets(st.integers(0, size), max_size=4)) | {0, size}))


@pytest.mark.parametrize("t", [
    [0.75 + 2.0 ** -51] * 7,  # the low bit of each term survives every slice
    # 255 terms allow 44-bit slices; 46-bit ones keep the 2^-45 and round
    [1.5 + 2.0 ** -45 + 2.0 ** -52] * 255,
    [2.0 ** 40 - 2.0 ** -12, 2.0 ** -40, 1.0 + 2.0 ** -52] * 50,
    [1.0 + j * 2.0 ** -52 for j in range(64)] + [0.0, 2.0 ** -40],
    [0.0] * 5,
    [],
    # signed: the sums cancel to a few low bits, or to exactly 0
    [1.0, -1.0 + 2.0 ** -52, 2.0 ** 40, -(2.0 ** 40), 2.0 ** -40] * 9,
    [2.0 ** 30 + 1.0, -(2.0 ** 30), -1.0, 2.0 ** -30] * 40,
    [-0.75 - 2.0 ** -51] * 7 + [0.75 + 2.0 ** -51] * 6,
    [-1.5 - 2.0 ** -45 - 2.0 ** -52] * 255,
    # the ends of the admitted range
    [2.0 ** 900, 2.0 ** -1000, -(2.0 ** 900), 3.0 * 2.0 ** -1000],
])
def test_window_slices_hold_every_bit(t):
    _check_windows(t, [0, len(t)], lambda size: list(range(size + 1)))


def test_exact_sum_in_chunks(monkeypatch):
    cases = [[1.0, -1.0 + 2.0 ** -52, 2.0 ** 40, -(2.0 ** 40), 2.0 ** -40] * 9,
             [1.5 + 2.0 ** -45 + 2.0 ** -52] * 255,
             [math.ldexp(1.0 + j * 2.0 ** -52, j % 80 - 40) * (-1) ** j
              for j in range(1000)]]
    for chunk in (1, 2, 7, 1 << 16):
        monkeypatch.setattr(summation, "_CHUNK", chunk)
        for t in cases:
            assert exact_sum(np.array(t)) == fsum(t)
    assert exact_sum(np.zeros(0)) == 0.0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 2.0 ** 901,
                                 -(2.0 ** 901), 2.0 ** -1001, -5e-324])
def test_terms_outside_the_slice_range_are_refused(bad):
    with pytest.raises(ValueError, match="terms must be finite"):
        exact_sum(np.array([1.0, bad, 0.0]))


XS = [2, 3, 29, 30, 31, 1109, 1110, 1111, 3000, 7679, 7680, 7681, 10 ** 4]


@pytest.mark.parametrize("window", [1, 37, 256])
@pytest.mark.parametrize("a,b", [(2, 1), (4, 3), (2, -1), (1, -29)])
def test_pair_sums_equal_the_prefix_fsums(window, a, b, monkeypatch):
    # the checkpoints sit on and beside window edges: 30 * window * k
    monkeypatch.setattr(sieve, "PAIR_WINDOW", window)
    assert pair_sums(XS, a, b) == oracles.pair_sums_prefix(XS, a, b)


@pytest.mark.parametrize("window", [1, 37, 256])
def test_reciprocal_sums_equal_the_prefix_fsums(window, monkeypatch, c2_1e6):
    monkeypatch.setattr(sieve, "PAIR_WINDOW", window)
    assert reciprocal_sums(XS, lambda: c2_1e6) == \
        oracles.reciprocal_sums_prefix(XS, c2_1e6.value)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pair_sums_hold_one_window_whatever_the_pair_count(monkeypatch, c2_1e6):
    # a window of the 3 classes the (2, 1) pass sieves, as int64 entries;
    # the whole-array sums peaked at 7x this at 10^7
    monkeypatch.setattr(sieve, "PAIR_WINDOW", 1 << 12)
    window_bytes = 3 * sieve.PAIR_WINDOW * 8
    for x in (10 ** 6, 10 ** 7):  # 7,746 and 56,032 pairs
        assert _peak_bytes(lambda: pair_sums([x])) < 4 * window_bytes
        assert _peak_bytes(lambda: reciprocal_sums([x], lambda: c2_1e6)) \
            < 4 * window_bytes
