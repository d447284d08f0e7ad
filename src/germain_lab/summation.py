"""Exact sums of float64 arrays, by error-free slicing.

Every real-valued sum that a report prints is correctly rounded: it is the
double nearest the exact sum of its terms, the value math.fsum gives. This
module is the one place that decides how a numpy array of terms is summed.
PrefixSums takes a stream of arrays and gives the correctly rounded sum of
the stream up to any cut, and exact_sum is its one-cut case for a single
array. Neither builds one Python float per term, as fsum(t.tolist()) does:
_slices splits the terms into a few slices whose numpy sums are exact, so a
handful of doubles carries the exact sum of any prefix, and fsum of those
doubles is fsum of the prefix bit for bit. The exact sum of slices does not
depend on their order or on where the terms were split, so PrefixSums
slices each array _CHUNK terms at a time and keeps only the slice doubles
of what it was fed, and a window of the stream may come as several arrays,
each cut at its own place: a sieve window comes as one array per residue
class, and a checkpoint cuts each of them where its terms end.

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
    r, h = t, np.empty_like(t)
    while True:
        sigma = math.ldexp(1.5, g + 52)
        np.add(r, sigma, out=h)
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

    The stream comes in windows, each one array or more added in turn. A
    window serves a list of checkpoints, and each of its arrays is cut once
    per checkpoint; a checkpoint's sum is the fsum of every term of the
    earlier windows and of each array of its window up to that array's cut.
    Only the slice doubles of what was added are kept, a few per _CHUNK
    terms, so a caller can reduce a long stream one array at a time.
    """

    def __init__(self) -> None:
        self._parts: list[float] = []  # slices of every window ended so far
        self._window: list[float] = []  # slices of the open window's arrays
        # per checkpoint of the open window, the slices of its cuts; None
        # while no window is open
        self._cuts: list[list[float]] | None = None

    def add(self, t: np.ndarray, cuts: Sequence[int] = ()) -> None:
        """Add t to the open window, cut at t[:k] for each k in cuts.

        cuts holds one k per checkpoint of the window, the same number for
        each of its arrays, ascending with 0 <= k <= t.size.
        """
        if any(j > k for j, k in zip([0, *cuts], [*cuts, t.size])):
            raise ValueError(f"cuts must ascend within [0, {t.size}]: {list(cuts)}")
        if self._cuts is None:
            self._cuts = [[] for _ in cuts]
        elif len(cuts) != len(self._cuts):
            raise ValueError(f"{len(cuts)} cuts for a window of "
                             f"{len(self._cuts)} checkpoints")
        prefixes, whole = [], []  # per cut, and for all of t: t's slices
        for lo in range(0, t.size, _CHUNK):
            chunk = t[lo:lo + _CHUNK]
            inner = [k - lo for k in cuts if lo <= k < lo + chunk.size]
            *at, last = _slices(chunk, inner + [chunk.size])
            prefixes += [whole + part for part in at]
            whole += last
        prefixes += [whole] * (len(cuts) - len(prefixes))  # the cuts at t.size
        for slices, prefix in zip(self._cuts, prefixes):
            slices += prefix
        self._window += whole

    def end_window(self) -> list[float]:
        """End the open window: per checkpoint, the sum of the stream to its cuts."""
        sums = [fsum(self._parts + slices) for slices in self._cuts or ()]
        self._parts += self._window
        self._window, self._cuts = [], None
        return sums

    def feed(self, t: np.ndarray, cuts: Sequence[int] = ()) -> list[float]:
        """Add t as a window of its own: per k in cuts, the sum of the stream to t[:k]."""
        self.add(t, cuts)
        return self.end_window()

    def total(self) -> float:
        """The correctly rounded sum of every window ended so far."""
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
