"""Prime sieves and deterministic 64-bit primality.

Every prime of the library comes from one strike kernel, _strike, a
segmented sieve (Bays and Hudson) of a window of the progression
n = c + W*i: for each row (l, r, first) it strikes the n = r (mod l) with
n >= first, and numpy finds the first index of every row in the window at
once. One window loop, _windows, serves both sieves, on one thread: it
yields a flat stream of ascending arrays, each class's survivors window by
window, and strikes a class window only when the caller asks for its
array, so a caller can reduce a pass one array at a time and no window is
ever merged. Plain primes use W = 2, c = 1: prime_windows tiles [3, limit]
with windows of odd integers of fixed boundaries and one class, so each of
its arrays is one window as struck; primes_upto and the twin-prime product
are built on it, and prime_powers lists the p^k (k >= 2) of its primes.
The pair sieve uses the wheel W = 30: it sieves only the classes c with c
and a*c + b prime to 30, and strikes the companions a*n + b too, which
gives the primes p with a*p + b also prime; pair_windows yields the few
pairs decided apart before the stream, and pair_primes sorts it all into
one array. A class window holds one byte per entry, so both sieves keep
only the base primes and one class window, whatever the range.

The module imports without numpy: each function that builds an array
imports it, so numpy loads on the first sieve call, and is_prime, which
the primitive-root sweeps call, never loads it.

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
from collections.abc import Iterator

_U64 = 1 << 64
_I64 = 1 << 63

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Their product: an n above 37 that shares a factor with it is composite
_MR_PRIMORIAL = math.prod(_MR_BASES)
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

# Entries per window of the strike kernel, one byte each while sieved: odd
# integers for the plain primes, integers of one residue class for the pairs.
PAIR_WINDOW = 1 << 20

# The pair sieve's wheel and its primes. A pair (n, a*n + b) has n and
# a*n + b prime to the wheel, unless one of them is a wheel prime.
_WHEEL = 30
_WHEEL_PRIMES = (2, 3, 5)

# Strike rows on a progression c + step*i: (l, j, start) int64 arrays, and
# row k strikes the i = j[k] (mod l[k]) with i >= start[k]. A string, as
# this module imports numpy only inside the functions that use it.
_Rows = "tuple[np.ndarray, np.ndarray, np.ndarray]"


def _progressions(step: int, classes: list[int], l: np.ndarray, r,
                  first) -> list[_Rows]:
    """The rows (l, r, first) on the progression c + step*i of each class c.

    Row (l, r, first) strikes the n = r (mod l) with n >= first. Each l is
    prime to step, or 1, which strikes every n >= first.
    """
    import numpy as np
    inverse = np.array([pow(step, -1, m) for m in l.tolist()], dtype=np.int64)
    # both factors are below l <= sqrt(2^63), so their product fits in int64
    return [(l, (r - c) % l * inverse % l, -((c - first) // step)) for c in classes]


def _strike(size: int, i0: int, rows: _Rows) -> np.ndarray:
    """flags[k] for the entry i0 + k of a window of size entries, struck by rows.

    This is the one loop of the library that strikes composites; numpy finds
    the first index of every row in the window at once.
    """
    import numpy as np
    l, j, start = rows
    s = np.maximum(start, i0)
    s += (j - s) % l
    s -= i0
    hit = s < size
    flags = np.ones(size, dtype=bool)
    for k, step in zip(s[hit].tolist(), l[hit].tolist()):
        flags[k::step] = False
    return flags


def _survivors(size: int, i0: int, rows: _Rows, step: int, n0: int,
               least: int) -> np.ndarray:
    """The n = n0 + step*k >= least of the entries k that rows leave unstruck (int64).

    Computed in place, and no name holds the flags once they are read.
    """
    import numpy as np
    ns = np.flatnonzero(_strike(size, i0, rows))
    ns *= step
    ns += n0
    return ns[np.searchsorted(ns, least):]


def _windows(step: int, classes: list[int], class_rows: list[_Rows], top: int,
             first: int, least: int) -> Iterator[np.ndarray]:
    """Each class's ascending survivors n <= top, window by window (int64 arrays).

    Window k holds the entries i of first + k*PAIR_WINDOW <= i <
    first + (k+1)*PAIR_WINDOW of every class c, n = c + step*i, with the n
    below least trimmed; each class with entries in a window gives one
    array, empty or not, and every n of window k is below every n of
    window k + 1. A class is struck only when its array is asked for, and
    the generator keeps no name on an array it has yielded, so only the
    caller holds it.
    """
    for i0 in range(first, top // step + 1, PAIR_WINDOW):
        for c, rows in zip(classes, class_rows):
            size = min(PAIR_WINDOW, (top - c) // step + 1 - i0)
            if size > 0:
                yield _survivors(size, i0, rows, step, c + step * i0, least)


def prime_windows(limit: int) -> Iterator[np.ndarray]:
    """The odd primes <= limit, one ascending int64 array per window, in order.

    Window k holds the odd n = 1 + 2i with 1 + k*PAIR_WINDOW <= i <
    1 + (k+1)*PAIR_WINDOW, struck by the odd base primes l <= sqrt(limit)
    from l^2 on: fixed boundaries, whoever reduces the windows.
    """
    base = primes_upto(math.isqrt(limit))[1:]
    # (limit - 1) | 1 is the largest odd n <= limit, and every window has
    # entries of the one class
    return _windows(2, [1], _progressions(2, [1], base, 0, base * base),
                    (limit - 1) | 1, 1, 3)


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array, ascending."""
    import numpy as np
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate([np.array([2], dtype=np.int64), *prime_windows(limit)])


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


def _pair_rows(x: int, a: int, b: int, base: np.ndarray) -> tuple[np.ndarray, ...]:
    """The pair sieve's strike rows (l, r, first), for the base primes off the wheel.

    n is struck from l^2 on where l divides it, and from (l - b)//a + 1 on,
    the first n with a*n + b > l, where l divides a*n + b: n = -b/a (mod l).
    A prime l that divides a and b divides every a*n + b: the row (1, 0, first).
    """
    import numpy as np
    rows = []
    for l in base.tolist():
        if _WHEEL % l == 0:
            continue
        if l * l <= x:
            rows.append((l, 0, l * l))
        first = (l - b) // a + 1
        if a % l:
            rows.append((l, -b * pow(a, -1, l) % l, first))
        elif b % l == 0:
            rows.append((1, 0, first))
    return tuple(np.array(rows, dtype=np.int64).reshape(-1, 3).T)


def pair_windows(x: int, a: int = 2, b: int = 1) -> Iterator[np.ndarray]:
    """The primes p <= x with a*p + b prime, as a stream of ascending int64 arrays.

    One segmented pass sieves n and its companion a*n + b together, only on
    the classes c mod 30 with c and a*c + b prime to 30: 3 of the 30 for
    (2, 1), PAIR_WINDOW entries n = c + 30*i of each per window. The wheel
    primes, and the n whose companion is one, are decided apart, by
    is_prime, and come first as one array; then come each class's pairs,
    window by window. The arrays interleave, and each pair is in one of
    them. A class window is struck when its array is asked for, so besides
    the array the caller holds, only the base primes up to
    sqrt(max(x, a*x + b)) and one class's flags are in memory. The input is
    checked before the first array.
    """
    import numpy as np
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    top = a * x + b
    if top >= _I64:  # callers form a*p + b in int64
        raise ValueError(f"a*x+b = {top} overflows the supported 64-bit range")
    base = primes_upto(math.isqrt(max(x, top)))
    classes = [c for c in range(1, _WHEEL)
               if math.gcd(c, _WHEEL) == math.gcd(a * c + b, _WHEEL) == 1]
    class_rows = _progressions(_WHEEL, classes, *_pair_rows(x, a, b, base))
    off = {*_WHEEL_PRIMES, *((q - b) // a for q in _WHEEL_PRIMES if (q - b) % a == 0)}
    extra = np.array(sorted(n for n in off if 2 <= n <= x and a * n + b >= 2
                            and is_prime(n) and is_prime(a * n + b)), dtype=np.int64)
    # nothing strikes n = 1, nor the n whose companion a*n + b is below 2
    least = max(2, -((b - 2) // a))
    yield extra
    yield from _windows(_WHEEL, classes, class_rows, x, 0, least)


def pair_primes(x: int, a: int = 2, b: int = 1) -> np.ndarray:
    """All primes p <= x with a*p + b prime, ascending (int64): pair_windows sorted."""
    import numpy as np
    return np.sort(np.concatenate(list(pair_windows(x, a, b))))


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n < 2^64 (no probabilistic error)."""
    if n < 0 or n >= _U64:
        raise ValueError(f"n={n} outside supported range [0, 2^64)")
    if n <= _MR_BASES[-1]:
        return n in _MR_BASES
    if math.gcd(n, _MR_PRIMORIAL) > 1:
        return False
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
