"""Exact sums of float64 arrays, by error-free slicing.

Every real-valued sum that a report prints is correctly rounded: it is the
double nearest the exact sum of its terms, the value math.fsum gives. This
module is the one place that decides how a numpy array of terms is summed.
PrefixSums takes a stream of arrays, each cut once per checkpoint, and
gives each checkpoint the correctly rounded sum of the terms before its
cuts. sums_upto is its case of one array whose terms ascend in a key, cut
where each checkpoint's keys end, and exact_sum its case of one array and
one cut. None of them builds one Python float per term, as
fsum(t.tolist()) does: _slices splits the terms into a few
slices whose numpy sums are exact, so a handful of doubles carries the
exact sum of any run of terms, and fsum of those doubles is fsum of the
run bit for bit. That sum does not depend on the order of the slices or on
where the terms were split, so the arrays of a sieve pass, one per residue
class and window, are each cut where a checkpoint's pairs end, and the
doubles of each run between two cuts are folded into one exact expansion
per checkpoint (_grow, the error-free additions that fsum runs on).

exact_sum sums an array of at most _SMALL terms as fsum(t.tolist()) instead,
which is faster there and the same double. Both paths refuse the same
terms: the slices need every nonzero magnitude in [2^-1000, 2^900].
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
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


def _slices(t: np.ndarray, pieces: Sequence[tuple[int, int]]) -> list[list[float]]:
    """Per (lo, hi) of pieces, doubles whose exact sum is the exact sum of t[lo:hi].

    t holds float64 terms of either sign, refused as _range refuses them.
    Each step extracts the slice h = (r + sigma) - sigma of the remainder r,
    sigma = 1.5 * 2^(g + 52) (ExtractVector of Rump, Ogita and Oishi, SIAM
    J. Sci. Comput. 31, 2008): while |r| <= 2^(g + 51), h is r rounded to a
    multiple of 2^g and r - h is exact. g starts width bits below the top
    of |t| and steps down by width, to the ulp of the least nonzero |term|,
    where the remainder is 0. Every h is a multiple of 2^g of magnitude at
    most 2^(g + width), and width + bit_length(t.size) is 52, so every
    partial sum of a slice is a multiple of 2^g below 2^(g + 52) in
    magnitude: numpy sums any run of a slice exactly, in any order. fsum,
    which rounds the exact sum of its inputs, is then the same double on
    these partials as on t[lo:hi] itself.
    """
    parts = [[] for _ in pieces]
    least, top = _range(t)
    if top == 0.0:
        return parts
    width = 52 - t.size.bit_length()
    assert width + 1 + math.log2(t.size) <= 53
    low = math.frexp(least)[1] - 53
    g = max(math.frexp(top)[1] - width, low)
    r, h = t, np.empty_like(t)
    while True:
        sigma = math.ldexp(1.5, g + 52)
        np.add(r, sigma, out=h)
        h -= sigma
        if r is t:
            r = t - h  # t itself is never written
        else:
            r -= h
        for part, (lo, hi) in zip(parts, pieces):
            part.append(float(h[lo:hi].sum()))
        if g == low:
            return parts
        g = max(g - width, low)


def _grow(expansion: list[float], v: float) -> None:
    """Add v to expansion, nonoverlapping doubles whose exact sum it holds.

    Shewchuk's grow-expansion (Discrete Comput. Geom. 18, 1997), the msum
    recipe that math.fsum runs on: each step is an error-free two-sum of
    the larger and the smaller magnitude, and every nonzero error stays.
    """
    i = 0
    for w in expansion:
        if abs(v) < abs(w):
            v, w = w, v
        high = v + w
        low = w - (high - v)
        if low:
            expansion[i] = low
            i += 1
        v = high
    expansion[i:] = [v]


class PrefixSums:
    """The correctly rounded sums of a stream of 1-d float64 arrays, at checkpoints.

    Each array is cut once per checkpoint; checkpoint j's interval holds,
    of every array, the terms from cut j - 1 (0 for the first) up to cut j,
    and its sum is the fsum of its interval and of every earlier one. Each
    run between two cuts is sliced once, _CHUNK terms at a time, into its
    interval's exact expansion: a few doubles per checkpoint, however long
    the stream, which may come in any order, one array at a time.

    The checkpoints may come in groups of equal size, one after another,
    such as one group per residue class of arrays sorted by class: a sum
    then runs over the earlier intervals of its own group only.
    """

    def __init__(self, checkpoints: int, groups: int = 1) -> None:
        self._group = checkpoints
        # per checkpoint, an expansion of the exact sum of its interval so far
        self._intervals: list[list[float]] = [[] for _ in range(checkpoints * groups)]

    def add(self, t: np.ndarray, cuts: Sequence[int]) -> None:
        """Add t, cut at t[:k] for each checkpoint's k in cuts.

        cuts holds one k per checkpoint, ascending with 0 <= k <= t.size;
        the terms past the last cut are in no interval.
        """
        if len(cuts) != len(self._intervals):
            raise ValueError(f"{len(cuts)} cuts for {len(self._intervals)} checkpoints")
        edges = [0, *cuts]
        if any(j > k for j, k in zip(edges, [*cuts, t.size])):
            raise ValueError(f"cuts must ascend within [0, {t.size}]: {list(cuts)}")
        end = edges[-1]
        for lo in range(0, end, _CHUNK):
            hi = min(lo + _CHUNK, end)
            # the checkpoints whose intervals meet the chunk t[lo:hi]
            js = [j for j in range(bisect_right(cuts, lo), bisect_left(cuts, hi) + 1)
                  if edges[j] < edges[j + 1]]
            pieces = [(max(edges[j], lo) - lo, min(edges[j + 1], hi) - lo) for j in js]
            for j, part in zip(js, _slices(t[lo:hi], pieces)):
                for v in part:
                    _grow(self._intervals[j], v)

    def sums(self) -> list[float]:
        """Per checkpoint, the correctly rounded sum up to the end of its interval."""
        out = []
        for j, interval in enumerate(self._intervals):
            if j % self._group == 0:
                expansion = []
            for v in interval:
                _grow(expansion, v)
            out.append(fsum(expansion))
        return out


def sums_upto(keys: np.ndarray, t: np.ndarray, xs: Sequence[int]) -> list[float]:
    """Per checkpoint x, the correctly rounded sum of the terms t whose key is <= x.

    keys ascend, one per term of t, and so do the checkpoints xs: one
    PrefixSums, cut once per checkpoint.
    """
    stream = PrefixSums(len(xs))
    stream.add(t, np.searchsorted(keys, xs, side="right").tolist())
    return stream.sums()


def exact_sum(t: np.ndarray) -> float:
    """fsum(t.tolist()), the correctly rounded sum of a 1-d t.

    A t of more than _SMALL terms is sliced _CHUNK terms at a time, without
    the list.
    """
    if t.size > _SMALL:
        chunks = (t[lo:lo + _CHUNK] for lo in range(0, t.size, _CHUNK))
        return fsum(v for chunk in chunks for v in _slices(chunk, [(0, chunk.size)])[0])
    terms = t.tolist()
    if not all(_LOWEST <= abs(v) <= _HIGHEST for v in terms if v):
        _range(t)  # refuses them, naming the range of the terms
    return fsum(terms)
