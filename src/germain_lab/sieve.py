"""Prime sieves and deterministic 64-bit primality.

Every prime of the library comes from one sieve of a set of linear forms,
_sieve(x, forms, window), which yields the n <= x at which every form
a*n + b is prime, on the one wheel W = 30. The wheel decides some n apart:
those with a form value that is a wheel prime, 2, 3 or 5, come first, as
one array, and is_prime proves their other values. Every other such n lies
in a class c mod 30 with each a*c + b prime to 30, and the classes come one
at a time, each a segmented sieve of its progression n = c + 30*i, window
by window.

One row rule serves every form. For each form (a, b) and base prime l >= 7,
strike the n with l | a*n + b, from where a*n + b >= l^2 on. A composite
value whose least prime factor is l is at least l^2, and a smaller factor
is either a wheel prime, which the classes exclude, or a base prime, whose
own row strikes the value. Where l | a, the row strikes every n if l | b,
and there is none otherwise. _rows turns the rule into one set of rows
(l, alpha, beta, n0), with one inverse of 30*a mod l per form and prime:
on class c, row k strikes the i = beta - c*alpha (mod l) from
i = ceil((n0 - c) / 30) on. _sieve maps the rows onto one class at a time,
and _survivors, a segmented sieve (Bays and Hudson), strikes each window
of the class with them. The base primes are the plain primes up to the
square root of the largest value; where that root is below 7 no base prime
has a row, so none is read, no row is built and the recursion ends.

The plain primes are the forms [(1, 0)]: prime_windows yields [2, 3, 5],
then the primes of the 8 classes prime to 30, class by class, each window
of PAIR_WINDOW // 2 entries. _primes concatenates them in that order, for
the base primes of every sieve, which do not need order, and primes_upto
sorts them. prime_powers(x, a, b) lists the prime powers q^k (k >= 2) in
the values a*n + b, n <= x, of one form, reading the primes up to
sqrt(a*x + b) one window at a time; (1, 0) gives every prime power up to
x. The pairs are [(1, 0), (a, b)]: pair_windows yields the primes p with
a*p + b also prime, on windows of PAIR_WINDOW entries, and pair_primes
sorts them into one array. check_pair_range refuses a range the pair
sieve cannot take, so that a caller can refuse it before other work. A
window holds one byte per entry, and it is struck only when its array is
asked for, so a stream holds only the base primes, their rows, and one
class's rows and window, whatever the range. No reported bit depends on
the order of the arrays or on where the windows fall: every sum of a
stream is correctly rounded, the twin-prime product cuts its partial sums
on its own fixed grid, and the callers that list the primes sort them.

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

# Entries per class window of the pair sieve, one byte each while sieved. A
# plain-prime window takes half as many, read from this name at each call:
# primes are dense, and 2^20 entries of a class hold ~215k primes at 10^8,
# which raised the peak RSS of `constants --cutoff 1e8` from 31.1 to 32.5 MB
# (2-core Xeon, Python 3.11, numpy 2.4).
PAIR_WINDOW = 1 << 20

# The wheel every sieve runs on, and its primes: a value prime to 30 is a
# multiple of none of them, and every other base prime is at least 7.
_WHEEL = 30
_WHEEL_PRIMES = (2, 3, 5)
# check_pair_range refuses a*x + b at or above this: the base primes, up to
# sqrt(a*x + b), would pass 2^25.
_PAIR_TOP = 1 << 50

# Strike rows of the base primes: (l, alpha, beta, n0) int64 arrays, and on
# the progression c + 30*i of a class c, row k strikes the
# i = beta[k] - c*alpha[k] (mod l[k]) with c + 30*i >= n0[k]. A string, as
# this module imports numpy only inside the functions that use it.
_Rows = "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]"


def _survivors(size: int, i0: int, rows: tuple[np.ndarray, ...] | None,
               n0: int, least: int) -> np.ndarray:
    """The n = n0 + 30*k >= least of a window's entries k, at i0 + k on its
    class's progression, that rows leave unstruck (int64).

    rows are the class's (l, j, start): row k strikes the i = j[k]
    (mod l[k]) with i >= start[k]. This is the one loop of the library that
    strikes composites; numpy finds the first index of every row in the
    window at once. With no rows (None) every entry stands. The n are
    computed in place, and no name holds the flags once they are read.
    """
    import numpy as np
    flags = np.ones(size, dtype=bool)
    if rows is not None:
        l, j, start = rows
        s = np.maximum(start, i0)
        s += (j - s) % l
        s -= i0
        hit = s < size
        for k, step in zip(s[hit].tolist(), l[hit].tolist()):
            flags[k::step] = False
    ns = np.flatnonzero(flags)
    del flags
    ns *= _WHEEL
    ns += n0
    return ns if n0 >= least else ns[np.searchsorted(ns, least):]


def _rows(x: int, forms: list[tuple[int, int]], base: np.ndarray) -> _Rows:
    """One set of strike rows for every form, from the base primes l >= 7, for n <= x.

    Form (a, b) strikes the n with l | a*n + b from n0, the first n with
    a*n + b >= l^2, on: on class c, the i = -(a*c + b) / (30*a) (mod l),
    which is beta - c*alpha with alpha = a / (30*a) and beta = -b / (30*a)
    (mod l). Where l | a the row has modulus 1 if l | b, and there is none
    otherwise. base may hold the wheel primes, in any order.
    """
    import numpy as np
    base = base[_WHEEL % base > 0]
    rows = []
    for a, b in forms:
        top = a * x + b
        l = base[base * base <= top]  # a row that starts beyond x is dropped
        # the first n with a*n + b >= l^2, from top so that no term leaves int64
        n0 = x - (top - l * l) // a
        keep = (a % l > 0) | (b % l == 0)
        l = np.where(a % l > 0, l, 1)[keep]
        # one pow per prime: a numpy square-and-multiply took 29 ms against
        # 45-56 ms for the 108k primes of (2, 1) at 10^12, too little to pay
        # for its lines beside the pass
        inverse = np.fromiter((pow(a * _WHEEL, -1, m) for m in l.tolist()),
                              dtype=np.int64, count=l.size)
        # each factor is below l, and l^2 <= a*x + b < 2^63
        rows.append((l, a % l * inverse % l, -(b % l) * inverse % l, n0[keep]))
    return tuple(np.concatenate(arrays) for arrays in zip(*rows))


def _sieve(x: int, forms: list[tuple[int, int]], window: int) -> Iterator[np.ndarray]:
    """The n <= x at which every form a*n + b is prime, as ascending int64 arrays.

    The first array holds the n that the wheel decides apart, those with a
    form value that is 2, 3 or 5; is_prime proves their other values. Then
    come the classes c mod 30 with every a*c + b prime to 30, one class at
    a time, each a segmented sieve of its progression n = c + 30*i: its
    window k holds the n with i0 + k*window <= i < i0 + (k+1)*window and
    n <= x, i0 = least // 30, where least is the first n at which every
    value is >= 2, and each window of the class gives one array, empty or
    not. Where no class is admissible, the first array is the whole stream,
    and no base prime is read; where every value is below 7^2, no base
    prime or row is built either, and the classes are left unstruck. A
    window is struck only when its array is asked for, and the generator
    keeps no name on an array it has yielded: besides the caller's array,
    only the base primes, their rows, and one class's rows and flags are in
    memory.
    """
    import numpy as np
    least = max(-((b - 2) // a) for a, b in forms)  # each value is >= 2 from it on
    classes = range(_WHEEL)
    for a, b in forms:
        classes = [c for c in classes if math.gcd(a * c + b, _WHEEL) == 1]
    root = math.isqrt(max(a * x + b for a, b in forms))
    # no rows where no base prime >= 7 is up to root; no base prime is read
    # where no class is admissible
    rows = _rows(x, forms, _primes(root)) if classes and root >= 7 else None
    apart = {(q - b) // a for a, b in forms for q in _WHEEL_PRIMES if (q - b) % a == 0}
    yield np.array(sorted(n for n in apart if least <= n <= x and all(
        a * n + b in _WHEEL_PRIMES or is_prime(a * n + b) for a, b in forms)),
        dtype=np.int64)
    for c in classes:
        on_class = None  # the last class's rows go before c's are built
        if rows is not None:  # (l, j, start) on c + 30*i, j = beta - c*alpha
            l, alpha, beta, n0 = rows
            on_class = l, (beta - c * alpha) % l, -((c - n0) // _WHEEL)
        end = (x - c) // _WHEEL + 1
        for i0 in range(least // _WHEEL, end, window):
            yield _survivors(min(window, end - i0), i0, on_class, c + _WHEEL * i0,
                             least)


def prime_windows(limit: int) -> Iterator[np.ndarray]:
    """The primes <= limit, as a stream of ascending int64 arrays.

    The first array is the wheel primes [2, 3, 5] up to limit. Then come
    the primes of the 8 classes c mod 30 prime to 30, class by class: a
    class's window k holds its n = c + 30*i with k*w <= i < (k+1)*w,
    w = max(1, PAIR_WINDOW // 2). Each prime is in one of the arrays. A
    negative limit is refused before the first.
    """
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    return _sieve(limit, [(1, 0)], max(1, PAIR_WINDOW // 2))


def _primes(limit: int) -> np.ndarray:
    """The primes <= limit as an int64 array, in prime_windows' order, unsorted.

    For the callers whose result does not depend on order: the first sort
    of a process faults in 0.3-0.4 MB of numpy's sort kernels.
    """
    import numpy as np
    return np.concatenate(list(prime_windows(limit)))


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array, ascending."""
    primes = _primes(limit)
    primes.sort()
    return primes


def prime_powers(x: int, a: int = 1, b: int = 0) -> list[tuple[int, float]]:
    """(m, log q) for the prime powers m = q^k (k >= 2) with m = a*n + b at an
    n in [2, x], ascending; (1, 0) gives every prime power up to x.

    The q come from prime_windows up to sqrt(a*x + b): their squares are
    filtered in numpy, and the few q with q^3 <= a*x + b are raised further.
    An a below 1 is refused.
    """
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    if x < 2:
        return []
    top = a * x + b
    out = []
    for qs in prime_windows(math.isqrt(max(top, 0))):
        squares = qs * qs  # each <= top, which callers keep below 2^63
        n = squares - b
        hit = (n % a == 0) & (n >= 2 * a)
        out += zip(squares[hit].tolist(), map(math.log, qs[hit].tolist()))
        for q in qs[squares <= top // qs].tolist():
            w, m = math.log(q), q ** 3
            while m <= top:
                if (m - b) % a == 0 and m - b >= 2 * a:
                    out.append((m, w))
                m *= q
    return sorted(out)


def check_pair_range(x: int, a: int, b: int) -> None:
    """Refuse an (x, a, b) that pair_windows cannot sieve: x < 2, a < 1, or
    a*x + b at or above 2^63, where callers' int64 overflows, or 2^50."""
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    top = a * x + b
    if top >= _I64:
        raise ValueError(f"a*x+b = {top} overflows the supported 64-bit range")
    if top >= _PAIR_TOP:
        raise ValueError(f"a*x+b = {top} is at or above 2^50: the base primes up "
                         f"to its square root would pass 2^25")


def pair_windows(x: int, a: int = 2, b: int = 1) -> Iterator[np.ndarray]:
    """The primes p <= x with a*p + b prime, as a stream of ascending int64 arrays.

    The sieve of the forms n and a*n + b on the wheel 30: it sieves only the
    classes c mod 30 with c and a*c + b prime to 30, 3 of the 30 for (2, 1).
    The wheel primes, and the n whose companion is one, come first as one
    array; then come the pairs class by class, each class window by window,
    and each pair is in one of the arrays. Besides the array the caller
    holds, only the base primes up to sqrt(max(x, a*x + b)), their rows,
    and one class's rows and flags are in memory. The input is checked
    (check_pair_range) before the first array.
    """
    check_pair_range(x, a, b)
    yield from _sieve(x, [(1, 0), (a, b)], PAIR_WINDOW)


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
