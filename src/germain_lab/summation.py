"""Exact sums of float64 arrays, by error-free slicing.

Every real-valued sum that a report prints is correctly rounded: it is the
double nearest the exact sum of its terms, the value math.fsum gives. For
a numpy array of terms, fsum(t.tolist()) first builds one Python float per
term. prefix_slices reaches the same double without that list: it splits
the terms into a few slices whose numpy sums are exact, so a handful of
doubles carries the exact sum of any prefix, and fsum of those doubles is
fsum of the prefix bit for bit. Slices of consecutive windows of a longer
array concatenate, which lets a caller reduce a stream window by window;
exact_sum reduces one array in chunks that way.
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
# Terms per prefix_slices call of exact_sum
_CHUNK = 1 << 16


def prefix_slices(t: np.ndarray, cuts: Sequence[int]) -> list[list[float]]:
    """For each k in cuts, doubles whose exact sum is the exact sum of t[:k].

    t holds float64 terms of either sign whose nonzero magnitudes lie in
    [2^-1000, 2^900]; other terms are refused with ValueError. Each step
    extracts the slice h = (r + sigma) - sigma of the remainder r,
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
    magnitudes = np.abs(t)
    top = magnitudes.max(initial=0.0)
    if top == 0.0:
        return parts
    magnitudes[magnitudes == 0.0] = np.inf
    least = magnitudes.min()
    del magnitudes
    if not _LOWEST <= least <= top <= _HIGHEST:
        raise ValueError(f"terms must be finite with nonzero magnitudes in "
                         f"[2^-1000, 2^900], got {float(least)!r} .. {float(top)!r}")
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


def exact_sum(t: np.ndarray) -> float:
    """fsum(t.tolist()), the correctly rounded sum of a 1-d t, without the list.

    t is sliced _CHUNK terms at a time, so the temporaries stay that size
    however long t is.
    """
    parts = []
    for lo in range(0, t.size, _CHUNK):
        [chunk] = prefix_slices(t[lo:lo + _CHUNK], [_CHUNK])
        parts += chunk
    return fsum(parts)
