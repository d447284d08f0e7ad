"""Exact sums of float64 arrays, by error-free slicing.

Every real-valued sum that a report prints is correctly rounded: it is the
double nearest the exact sum of its terms, the value math.fsum gives. This
module is the one place that decides how a numpy array of terms is summed.
PrefixSums takes a stream of arrays and gives the correctly rounded sum of
the stream up to any cut, and exact_sum is its one-cut case for a single
array. Neither builds one Python float per term, as fsum(t.tolist()) does:
_slices splits the terms into a few slices whose numpy sums are exact, so a
handful of doubles carries the exact sum of any prefix, and fsum of those
doubles is fsum of the prefix bit for bit. Slices of consecutive pieces of
a stream concatenate, so PrefixSums slices each array _CHUNK terms at a
time and keeps only the slice doubles of what it was fed.

exact_sum sums an array of at most _SMALL terms as fsum(t.tolist()) instead,
which is faster there and the same double. Both paths refuse the same
terms: the slices need every nonzero magnitude in [2^-1000, 2^900].
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from math import fsum

import numpy as np

# The magnitudes a nonzero term may take: they keep every sigma below the
# float64 overflow and at least a normal double.
_LOWEST = 2.0 ** -1000
_HIGHEST = 2.0 ** 900
# Terms per _slices call of PrefixSums
_CHUNK = 1 << 16
# Up to this many terms exact_sum checks and fsums the list. On a 2-core
# Xeon the slices cost 15-26 us at any size up to 384 terms; checking and
# fsumming the list, 0.4-3 us up to 16 terms, 13-18 us at 128, 41-44 us at 384.
_SMALL = 128


def _range(t: np.ndarray) -> tuple[float, float]:
    """(least nonzero, largest) magnitude of t; the largest is 0 if t is all zeros.

    Terms that are not finite, or whose nonzero magnitudes leave
    [2^-1000, 2^900], are refused with ValueError.
    """
    magnitudes = np.abs(t)
    top = magnitudes.max(initial=0.0)
    least = magnitudes.min(initial=np.inf, where=magnitudes != 0.0)
    if top and not _LOWEST <= least <= top <= _HIGHEST:
        raise ValueError(f"terms must be finite with nonzero magnitudes in "
                         f"[2^-1000, 2^900], got {float(least)!r} .. {float(top)!r}")
    return float(least), float(top)


def _slices(t: np.ndarray, cuts: Sequence[int]) -> list[list[float]]:
    """For each k in cuts, doubles whose exact sum is the exact sum of t[:k].

    t holds float64 terms of either sign, refused as _range refuses them.
    Each step extracts the slice h = (r + sigma) - sigma of the remainder r,
    sigma = 1.5 * 2^(g + 52) (ExtractVector of Rump, Ogita and Oishi, SIAM
    J. Sci. Comput. 31, 2008): while |r| <= 2^(g + 51), h is r rounded to a
    multiple of 2^g and r - h is exact. g starts width bits below the top
    of |t| and steps down by width, to the ulp of the least nonzero |term|,
    where the remainder is 0. Every h is a multiple of 2^g of magnitude at
    most 2^(g + width), and width + bit_length(t.size) is 52, so every
    partial sum of a slice is a multiple of 2^g below 2^(g + 52) in
    magnitude: numpy sums a slice exactly, in any order. fsum, which rounds
    the exact sum of its inputs, is then the same double on these partials
    as on t[:k] itself.
    """
    parts = [[] for _ in cuts]
    least, top = _range(t)
    if top == 0.0:
        return parts
    width = 52 - t.size.bit_length()
    assert width + 1 + math.log2(t.size) <= 53
    low = math.frexp(least)[1] - 53
    g = max(math.frexp(top)[1] - width, low)
    r = t
    while True:
        sigma = math.ldexp(1.5, g + 52)
        h = r + sigma
        h -= sigma
        if r is t:
            r = t - h  # t itself is never written
        else:
            r -= h
        for part, k in zip(parts, cuts):
            part.append(float(h[:k].sum()))
        if g == low:
            return parts
        g = max(g - width, low)


class PrefixSums:
    """The correctly rounded sums of a stream of 1-d float64 arrays, at its cuts.

    Only the slice doubles of what was fed are kept, a few per _CHUNK terms,
    so a caller can reduce a long stream one array at a time.
    """

    def __init__(self) -> None:
        self._parts: list[float] = []  # slices of every term fed so far

    def feed(self, t: np.ndarray, cuts: Sequence[int] = ()) -> list[float]:
        """Append t to the stream; for each k in cuts, the sum of the stream to t[:k].

        The cuts ascend, with 0 <= k <= t.size. Each sum is the fsum of every
        term fed before t and of t[:k].
        """
        if any(j > k for j, k in zip([0, *cuts], [*cuts, t.size])):
            raise ValueError(f"cuts must ascend within [0, {t.size}]: {list(cuts)}")
        out = []
        for lo in range(0, t.size, _CHUNK):
            chunk = t[lo:lo + _CHUNK]
            inner = [k - lo for k in cuts if lo <= k < lo + chunk.size]
            *at, whole = _slices(chunk, inner + [chunk.size])
            out += [fsum(self._parts + part) for part in at]
            self._parts += whole
        return out + [self.total()] * sum(k == t.size for k in cuts)

    def total(self) -> float:
        """The correctly rounded sum of everything fed so far."""
        return fsum(self._parts)


def exact_sum(t: np.ndarray) -> float:
    """fsum(t.tolist()), the correctly rounded sum of a 1-d t.

    A t of more than _SMALL terms goes through PrefixSums, without the list.
    """
    if t.size > _SMALL:
        return PrefixSums().feed(t, [t.size])[0]
    terms = t.tolist()
    if not all(_LOWEST <= abs(v) <= _HIGHEST for v in terms if v):
        _range(t)  # refuses them, naming the range of the terms
    return fsum(terms)
