"""Exact sums of float64 arrays, by error-free slicing.

Every real-valued sum that a report prints is correctly rounded: it is the
double nearest the exact sum of its terms, the value math.fsum gives. This
module is the one place that decides how a numpy array of terms is summed.
PrefixSums takes a stream of arrays, each cut once per checkpoint, and
gives each checkpoint the correctly rounded sum of the terms before its
cuts. Several sums of one stream, such as psi_g and psi0 of a sieve pass,
are the groups of one PrefixSums, and each add takes one array per group
at one set of cuts. sums_upto is its case of arrays whose terms ascend in
one key, cut where each checkpoint's keys end, and exact_sum its case of
one array and one cut. None of them builds one Python float per term, as
fsum(t.tolist()) does: _slices splits the terms into a few slices whose
numpy sums are exact, so a handful of doubles carries the exact sum of any
run of terms, and fsum of those doubles is fsum of the run bit for bit.
That sum does not depend on the order of the slices or on where the terms
were split, so the arrays of a sieve pass, one per residue class and
window, are each cut where a checkpoint's pairs end, and each run's slice
sums are added to rows of doubles whose exact sum is their checkpoint's
interval: every run at once, in numpy, by Knuth's two-sum, the error-free
addition that fsum runs on. The cost of an array is numpy work, none of
it a Python loop over the checkpoints, and the cuts of an add are checked
once for all its arrays.

Every array is reduced _CHUNK terms at a time, and chunks gives those
slices to any caller, so that no caller names a chunk size. add_terms
computes a stream's terms, one array per group, one slice of keys at a
time, and adds each slice's arrays together, so a caller that
reduces a sieve window's primes or pairs never holds a float array as
large as the window; the sums do not move, as each interval's sum is exact
however its terms are sliced. 2^14 terms per slice was measured on a
2-core Xeon: of 2^13 to 2^16 it gave the default census its lowest peak
RSS (31.8 MB; 32.5 MB at 2^16), and C2 to 10^8 took 5.8k page faults,
against 38.7k at 2^16.

checkpoint_keys is the library's one refusal of a checkpoint list, an x
below the least its caller admits or a list not strictly ascending; every
function that takes checkpoints runs it before other work, after only a cap
on the largest x, which may have to name an x past int64.

exact_sum sums an array of at most _SMALL terms as fsum(t.tolist()) instead,
which is faster there and the same double. Both paths refuse the same
terms: the slices need every nonzero magnitude in [2^-1000, 2^900].
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from math import fsum

import numpy as np

# The magnitudes a nonzero term may take: they keep every sigma below the
# float64 overflow and at least a normal double.
_LOWEST = 2.0 ** -1000
_HIGHEST = 2.0 ** 900
# Terms per slice of chunks, and so per _slices call (see the module docstring).
_CHUNK = 1 << 14
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
    magnitudes[magnitudes == 0.0] = np.inf  # cheaper than a min with where=
    least = magnitudes.min(initial=np.inf)
    if top and not _LOWEST <= least <= top <= _HIGHEST:
        raise ValueError(f"terms must be finite with nonzero magnitudes in "
                         f"[2^-1000, 2^900], got {float(least)!r} .. {float(top)!r}")
    return float(least), float(top)


def _slices(t: np.ndarray) -> Iterator[np.ndarray]:
    """Arrays h, one per slice, whose exact sum over all slices is that of t.

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
    these partials as on t itself. Each h is the same buffer, overwritten
    by the next slice.
    """
    least, top = _range(t)
    if top == 0.0:
        return
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
        yield h
        if g == low:
            return
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


def _runs(cuts: Sequence[int] | np.ndarray, size: int,
          count: int) -> tuple[np.ndarray, np.ndarray]:
    """cuts as int64, and each one's step from the one before (from 0).

    Refused unless there are count cuts, ascending within [0, size].
    """
    ends = np.asarray(cuts, dtype=np.int64)
    if ends.shape != (count,):
        raise ValueError(f"{len(cuts)} cuts for {count} checkpoints")
    steps = ends.copy()
    steps[1:] -= ends[:-1]
    if count and (ends[-1] > size or steps.min() < 0):
        raise ValueError(f"cuts must ascend within [0, {size}]: {ends.tolist()}")
    return ends, steps


def checkpoint_keys(xs: Sequence[int], least: int = 1) -> np.ndarray:
    """xs as int64 keys, refused unless each x is >= least and they ascend strictly.

    Every function that takes checkpoints calls it before any other work,
    but after a cap on the largest x: a cap may have to name an x past
    int64, which the keys cannot hold.
    """
    if min(xs, default=least) < least:
        raise ValueError(f"x must be >= {least}, got {min(xs)}")
    if any(y <= x for x, y in zip(xs, xs[1:])):
        raise ValueError(f"checkpoints must be strictly ascending: {list(xs)}")
    return np.array(xs, dtype=np.int64)


def chunks(a: np.ndarray) -> Iterator[np.ndarray]:
    """a as consecutive views of _CHUNK entries, the last one shorter."""
    return (a[lo:lo + _CHUNK] for lo in range(0, a.size, _CHUNK))


class PrefixSums:
    """The correctly rounded sums of a stream of 1-d float64 arrays, at checkpoints.

    Each array is cut once per checkpoint; checkpoint j's interval holds,
    of every array, the terms from cut j - 1 (0 for the first) up to cut j,
    and its sum is the fsum of its interval and of every earlier one. Each
    array is sliced one chunk at a time, and each slice's sums over its
    runs between cuts are added to those runs' intervals: a few doubles per
    checkpoint, however long the stream, which may come in any order, one
    array at a time. Only the intervals an array reaches are visited, in
    numpy, so its cost does not grow with the checkpoints beyond the
    checks of its cuts.

    The checkpoints may come in groups of equal size, one after another,
    such as one group per residue class of arrays sorted by class, or one
    per sum of a stream that gives each sum's terms of a slice together:
    a sum then runs over the earlier intervals of its own group only.
    """

    def __init__(self, checkpoints: int, groups: int = 1) -> None:
        self._group = checkpoints
        # column j holds doubles whose exact sum is interval j's sum so far
        self._rows = np.zeros((1, checkpoints * groups))

    def add(self, ts: Sequence[np.ndarray], cuts: Sequence[int] | np.ndarray) -> None:
        """Add the arrays ts, each cut at t[:k] for each k in cuts.

        The arrays are of one size, and cuts holds one k per interval that
        an array feeds, ascending with 0 <= k <= size: the s-th array feeds
        the intervals from s * len(cuts) on. So g groups take g arrays at
        one group's cuts, or one array at every group's cuts, one group
        after another. The terms past the last cut are in no interval. The
        cuts are checked, and the intervals that each slice meets are
        found, once for all the arrays.
        """
        size, count = ts[0].size, self._rows.shape[1] // len(ts)
        if any(t.size != size for t in ts):
            raise ValueError(f"arrays of sizes {[t.size for t in ts]} "
                             "share one set of cuts")
        ends, steps = _runs(cuts, size, count)
        # the intervals that hold terms, and where each starts and ends
        js = np.flatnonzero(steps > 0)
        highs = ends[js]
        lows = highs - steps[js]
        end = int(highs[-1]) if js.size else 0
        for lo, *pieces in zip(range(0, end, _CHUNK), *(chunks(t[:end]) for t in ts)):
            # the intervals that meet the slice, and where each starts in it
            i = np.searchsorted(highs, lo, side="right")
            k = np.searchsorted(lows, lo + pieces[0].size)
            firsts = np.maximum(lows[i:k] - lo, 0)
            for s, piece in enumerate(pieces):
                for h in _slices(piece):
                    self._fold(js[i:k] + s * count, np.add.reduceat(h, firsts))

    def _fold(self, js: np.ndarray, v: np.ndarray) -> None:
        """Add v[i] to interval js[i], error-free: each row takes a two-sum
        (Knuth, TAOCP vol. 2, 4.2.2) and passes its error to the next row."""
        for row in self._rows:
            a = row[js]
            s = a + v
            z = s - a
            v = (a - (s - z)) + (v - z)
            row[js] = s
            if not v.any():
                return
        extra = np.zeros((1, self._rows.shape[1]))
        extra[0, js] = v
        self._rows = np.concatenate([self._rows, extra])

    def sums(self) -> list[float]:
        """Per checkpoint, the correctly rounded sum up to the end of its interval."""
        out = []
        for j, interval in enumerate(self._rows.T.tolist()):
            if j % self._group == 0:
                expansion = []
            for v in interval:
                if v:
                    _grow(expansion, v)
            out.append(fsum(expansion))
        return out


def add_terms(stream: PrefixSums, keys: np.ndarray,
              terms: Callable[[np.ndarray], Sequence[np.ndarray]],
              cuts: Sequence[int] | np.ndarray) -> None:
    """Add terms of keys to stream, cut at keys[:k] for each checkpoint's k in cuts.

    terms(piece) gives one array per group of the stream, one term per key
    of the piece; it is called on each slice of chunks(keys) up to the
    last cut, and its arrays are added together, cut at the slice's share
    of cuts, so only one slice's terms are alive at a time. cuts ascend
    within [0, keys.size], as PrefixSums.add takes them.
    """
    ends = _runs(cuts, keys.size, len(cuts))[0]
    end = int(ends[-1]) if ends.size else 0
    for lo, piece in zip(range(0, end, _CHUNK), chunks(keys[:end])):
        stream.add(terms(piece), np.clip(ends - lo, 0, piece.size))


def sums_upto(keys: np.ndarray, ts: Sequence[np.ndarray],
              xs: Sequence[int]) -> list[float]:
    """Per array t of ts and checkpoint x, the correctly rounded sum of t[keys <= x].

    keys ascend, one per term of each array, and the checkpoints xs >= 1
    ascend strictly: one PrefixSums with a group per array, cut once per
    checkpoint.
    """
    cuts = np.searchsorted(keys, checkpoint_keys(xs), side="right")
    stream = PrefixSums(len(xs), len(ts))
    stream.add(ts, cuts)
    return stream.sums()


def exact_sum(t: np.ndarray) -> float:
    """fsum(t.tolist()), the correctly rounded sum of a 1-d t.

    A t of more than _SMALL terms is sliced one chunk at a time, without
    the list.
    """
    if t.size > _SMALL:
        return fsum(float(h.sum()) for chunk in chunks(t) for h in _slices(chunk))
    terms = t.tolist()
    if not all(_LOWEST <= abs(v) <= _HIGHEST for v in terms if v):
        _range(t)  # refuses them, naming the range of the terms
    return fsum(terms)
