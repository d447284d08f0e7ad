"""Prime sieves and deterministic 64-bit primality.

Every prime of the library comes from one kernel, _odd_flags, which sieves
a window of odd integers with the odd base primes up to its square root
(the segmented sieve of Bays and Hudson). map_prime_windows tiles [3, limit]
with such windows of fixed boundaries and applies a function to the primes
of each, in window order, on worker threads if asked; primes_upto and the
twin-prime product are built on it, and prime_powers lists the p^k (k >= 2)
of its primes. The pair sieve strikes the companions a*n + b on top of the
same window, which gives the primes p with a*p + b also prime. It runs its
windows in order on one thread: its strike loop holds the interpreter lock,
so threads did not speed it up. A window holds one byte per odd integer, so
both keep only the base primes and one window per worker, whatever the
range.

is_prime is a deterministic strong-pseudoprime (Miller-Rabin) test for
n < 2^64. Let psi_k be the least odd composite that is a strong probable
prime to each of the first k prime bases. Below psi_k those k bases decide
primality, so is_prime takes its bases from the first tier whose bound
exceeds n:

    bound                           bases     bound is
    2,047                           2         psi_1
    1,373,653                       2 .. 3    psi_2
    25,326,001                      2 .. 5    psi_3
    3,215,031,751                   2 .. 7    psi_4
    2,152,302,898,747               2 .. 11   psi_5
    3,474,749,660,383               2 .. 13   psi_6
    341,550,071,728,321             2 .. 17   psi_7 = psi_8
    3,825,123,056,546,413,051       2 .. 23   psi_9 = psi_10 = psi_11
    2^64                            2 .. 37   below psi_12 ~ 3.2e23

psi_1 .. psi_4 are from Pomerance, Selfridge and Wagstaff (Math. Comp. 35,
1980), psi_5 .. psi_8 from Jaeschke (Math. Comp. 61, 1993), and psi_9 ..
psi_12 from Jiang and Deng (Math. Comp. 83, 2014) and Sorenson and Webster
(Math. Comp. 86, 2017); they are OEIS A014233.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_U64 = 1 << 64
_I64 = 1 << 63

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# (psi_k, k): the first k bases decide every n < psi_k (see the module
# docstring). psi_8 = psi_7 and psi_10 = psi_11 = psi_9 add no tier.
_MR_TIERS = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (_U64, 12),
)

# Odd integers per window of the sieve kernel, one byte each while sieved.
PAIR_WINDOW = 1 << 20


def _windows(lo: int, hi: int, size: int) -> list[tuple[int, int]]:
    """Fixed boundaries of the windows [s, e] that tile [lo, hi]."""
    return [(s, min(s + size - 1, hi)) for s in range(lo, hi + 1, size)]


def _odd_flags(lo: int, hi: int, base: list[int]) -> np.ndarray:
    """flags[i] iff n = lo + 2i is prime, for the odd n in [lo, hi] (lo odd, >= 3).

    base holds the odd primes up to at least sqrt(hi), ascending. This is the
    one loop of the library that strikes composites.
    """
    flags = np.ones((hi - lo) // 2 + 1, dtype=bool)
    for l in base:
        if l * l > hi:
            break
        m = max(l * l, -(-lo // l) * l)
        if m % 2 == 0:
            m += l
        flags[(m - lo) // 2::l] = False
    return flags


def map_prime_windows(fn, limit: int, *, threads: int = 1) -> list:
    """fn(primes) for the odd primes of each window of [3, limit], in window order.

    primes is the ascending int64 array of one window of PAIR_WINDOW odd
    integers, sieved with the odd base primes <= sqrt(limit). fn runs on up
    to threads worker threads; the windows have fixed boundaries and the
    results come back in their order, so the list does not depend on the
    thread count.
    """
    base = primes_upto(math.isqrt(limit))[1:].tolist()

    def one(window: tuple[int, int]):
        lo, hi = window
        return fn(np.flatnonzero(_odd_flags(lo, hi, base)) * 2 + lo)

    bounds = _windows(3, limit, 2 * PAIR_WINDOW)
    if threads > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one, bounds))
    return [one(window) for window in bounds]


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array, ascending."""
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    parts = map_prime_windows(lambda primes: primes, limit)
    return np.concatenate([np.array([2], dtype=np.int64), *parts])


def prime_powers(x: int) -> list[tuple[int, float]]:
    """(n, log p) for the prime powers n = p^k <= x with k >= 2, ascending."""
    out = []
    for p in primes_upto(math.isqrt(max(x, 0))).tolist():
        w = math.log(p)
        pk = p * p
        while pk <= x:
            out.append((pk, w))
            pk *= p
    return sorted(out)


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
    flags = _odd_flags(lo, hi, base)
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


def pair_primes(x: int, a: int = 2, b: int = 1) -> np.ndarray:
    """All primes p <= x with a*p + b prime, ascending (int64).

    One segmented pass over the odd n <= x sieves n and its companion
    a*n + b together, one window after the other. Only the base primes up
    to sqrt(max(x, a*x + b)) and one window of PAIR_WINDOW bytes are held
    in memory besides the result.
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
    parts = [_pair_segment(lo, hi, a, b, base, companion)
             for lo, hi in _windows(3, x, 2 * PAIR_WINDOW)]
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
    for bound, k in _MR_TIERS:
        if n < bound:
            break
    for a in _MR_BASES[:k]:
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
