"""Prime sieves and deterministic 64-bit primality.

Every other module pulls its primes from here: a plain boolean sieve for
small tables, a segmented enumerator for ranges far beyond them, a
segmented pair sieve that finds the primes p with a*p + b also prime, and
a deterministic strong-pseudoprime test for anything below 2^64.
The segmented sieves hold only the base primes up to a square root plus one
fixed-size window per worker, so their memory does not grow with the range.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

# Witness set proven sufficient for all n < 3.3e24 (Sorenson-Webster),
# hence deterministic over the whole supported range n < 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_U64 = 1 << 64
_I64 = 1 << 63

DEFAULT_SEGMENT_SIZE = 1 << 18
# Odd integers per window of the pair sieve, one byte each while sieved.
PAIR_WINDOW = 1 << 20


@dataclass(frozen=True)
class PrimeSegment:
    """Ascending list of primes found in [lo, hi]."""

    lo: int
    hi: int
    primes: np.ndarray


def prime_flags(limit: int) -> np.ndarray:
    """Boolean array where flags[n] is True iff n is prime, 0 <= n <= limit."""
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p::p] = False
    return flags


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array."""
    return np.flatnonzero(prime_flags(limit)).astype(np.int64)


def _windows(lo: int, hi: int, size: int) -> list[tuple[int, int]]:
    """Fixed boundaries of the windows [s, e] that tile [lo, hi]."""
    return [(s, min(s + size - 1, hi)) for s in range(lo, hi + 1, size)]


def _map_windows(fn, bounds: list[tuple[int, int]], threads: int) -> list:
    """fn(lo, hi) for every window, in window order whatever the thread count."""
    if threads > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda w: fn(*w), bounds))
    return [fn(lo, hi) for lo, hi in bounds]


def _sieve_segment(lo: int, hi: int, base: list[int]) -> np.ndarray:
    """The primes in [lo, hi], ascending (int64); base: the primes <= sqrt(hi)."""
    flags = np.ones(hi - lo + 1, dtype=bool)
    if lo <= 1:
        flags[:min(2 - lo, hi - lo + 1)] = False
    for p in base:
        if p * p > hi:
            break
        start = max(p * p, ((lo + p - 1) // p) * p)
        flags[start - lo::p] = False
    return np.flatnonzero(flags).astype(np.int64) + lo


def primes_in(lo: int, hi: int, *, segment_size: int = DEFAULT_SEGMENT_SIZE,
              threads: int = 1) -> PrimeSegment:
    """Enumerate exactly the primes in [lo, hi], ascending.

    Segmented: only primes up to sqrt(hi) are tabulated, so the range may
    lie far beyond any full table. Segments can be sieved in parallel;
    results are merged in ascending segment order, so the output does not
    depend on the thread count.
    """
    if lo > hi:
        raise ValueError(f"empty range: lo={lo} > hi={hi}")
    if lo < 2:
        raise ValueError(f"lo must be >= 2, got {lo}")
    if hi >= _U64:
        raise ValueError("range end must be below 2^64")
    base = primes_upto(math.isqrt(hi)).tolist()
    parts = _map_windows(lambda s, e: _sieve_segment(s, e, base),
                         _windows(lo, hi, segment_size), threads)
    return PrimeSegment(lo=lo, hi=hi, primes=np.concatenate(parts))


def _pair_segment(lo: int, hi: int, a: int, b: int, base: list[int],
                  companion: list[tuple[int, int, int]]) -> np.ndarray:
    """Odd primes p in [lo, hi] (lo odd) with a*p + b prime, ascending (int64).

    Entry i of the window stands for n = lo + 2i. base holds the odd primes
    <= sqrt(max(hi, a*hi + b)), and companion one (l, r, first) for each of
    them: for odd n >= first, a*n + b is a proper multiple of l exactly when
    n = r (mod 2l). r is -1 where l divides a; then l divides every a*n + b
    if it divides b, and none otherwise. Below first, a*n + b <= l, so the
    one n with a*n + b == l is never struck.
    """
    flags = np.ones((hi - lo) // 2 + 1, dtype=bool)
    for l in base:  # odd composites n
        if l * l > hi:
            break
        m = max(l * l, -(-lo // l) * l)
        if m % 2 == 0:
            m += l
        flags[(m - lo) // 2::l] = False
    # a*n + b < 2 is never prime
    low = -((b - 2) // a)
    if low > lo:
        flags[:(low - lo + 1) // 2] = False
    # a + b even: the companion of every odd n is even, so prime only if 2
    if (a + b) % 2 == 0:
        flags[max(0, ((2 - b) // a + 2 - lo) // 2):] = False
    top = a * hi + b
    for l, r, first in companion:
        if l * l > top:
            break
        first = max(first, lo)
        if r >= 0:
            flags[(first + (r - first) % (2 * l) - lo) // 2::l] = False
        elif b % l == 0:
            flags[(first - lo + 1) // 2:] = False
    return np.flatnonzero(flags) * 2 + lo


def pair_primes(x: int, a: int = 2, b: int = 1, *, threads: int = 1) -> np.ndarray:
    """All primes p <= x with a*p + b prime, ascending (int64).

    One segmented pass over the odd n <= x sieves n and its companion
    a*n + b together. Only the base primes up to sqrt(max(x, a*x + b)) and
    one window of PAIR_WINDOW bytes per worker are held in memory. Windows
    have fixed boundaries and are merged in order, so the result does not
    depend on the thread count.
    """
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    top = a * x + b
    if top >= _I64:  # callers form a*p + b in int64
        raise ValueError(f"a*x+b = {top} overflows the supported 64-bit range")
    base = primes_upto(math.isqrt(max(x, top)))[1:].tolist()
    companion = []
    for l in base:
        r = -b * pow(a, -1, l) % l if a % l else -1
        if r >= 0 and r % 2 == 0:
            r += l  # the odd n = r (mod l) are n = r + l (mod 2l)
        companion.append((l, r, (l - b) // a + 1))
    two = np.array([2] if 2 * a + b >= 2 and is_prime(2 * a + b) else [], np.int64)
    parts = _map_windows(lambda lo, hi: _pair_segment(lo, hi, a, b, base, companion),
                         _windows(3, x, 2 * PAIR_WINDOW), threads)
    return np.concatenate([two, *parts])


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n < 2^64 (no probabilistic error)."""
    if n < 0 or n >= _U64:
        raise ValueError(f"n={n} outside supported range [0, 2^64)")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
