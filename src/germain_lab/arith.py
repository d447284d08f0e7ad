"""Multiplicative arithmetic functions: point functions and sieved tables.

The point evaluation totient factors its argument by trial division
(factorize), and divisors expands a factorization. The tables
(mobius_sieve, totient_sieve) are sieved instead, so tests can
cross-check the two independent routes. The sums over them live in sums,
and the von Mangoldt weights of the pair sums come from the sieve (primes
and prime_powers), not from factoring.

The two sieves split the primes at r = isqrt(limit). Each prime p <= r
takes one strided pass over its multiples, as usual. A prime p > r
divides an n <= limit at most once, with n = c*p and c <= limit // (r + 1)
<= r, so every prime factor of c is at most r and mu(c), phi(c) are final
once the small primes are done: then mu(n) = -mu(c) and
phi(n) = phi(c) (p - 1). The large primes are applied with one
fancy-index write per cofactor c, to the multiples c*p of all of them at
once: about sqrt(limit) numpy calls instead of one per prime. The tables
are integers, so the result does not depend on the order of the writes.

Both sieves take a limit below 2^31, which they refuse before anything is
allocated. Below it every n <= limit, and so every phi(n) <= n, fits 4
bytes: mu is an int8 table, one byte per integer, and phi an int32 table
(PHI_DTYPE), four bytes per integer. The large primes, their multiples
c*p and the values phi(c) (p - 1) are int32 arrays too, so no transient
is wider than the table it writes.

The module imports without numpy, as sieve does: factorize, divisors and
totient need none. The sieved tables import numpy when they are called.
"""

from __future__ import annotations

import math

from .sieve import primes_upto


def factorize(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n, ascending; n >= 1."""
    if n < 1:
        raise ValueError(f"cannot factor n={n}")
    out = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    f = 5
    while f * f <= n:
        # one test per wheel step; the rare hit then finds which of the two
        if n % f == 0 or n % (f + 2) == 0:
            for p in (f, f + 2):
                if n % p == 0:
                    e = 0
                    while n % p == 0:
                        n //= p
                        e += 1
                    out.append((p, e))
        f += 6
    if n > 1:
        out.append((n, 1))
    return out


def divisors(factors: list[tuple[int, int]]) -> list[int]:
    """All divisors of the n with the (prime, exponent) pairs factors, unordered."""
    ds = [1]
    for p, e in factors:
        ds = [d * p ** k for d in ds for k in range(e + 1)]
    return ds


def totient(n: int) -> int:
    """phi(n) = n * prod_{p|n} (1 - 1/p), in exact integer arithmetic."""
    if n < 1:
        raise ValueError(f"totient undefined for n={n}")
    t = n
    for p, _ in factorize(n):
        t -= t // p
    return t


# The element type of totient_sieve's table, and the limit both sieves stay
# below: phi(n) <= n < 2^31 fits it, as does every index n <= limit.
PHI_DTYPE = "int32"
SIEVE_LIMIT_CAP = 1 << 31


def _split_primes(limit: int) -> tuple[list[int], np.ndarray, list[int]]:
    """The primes <= limit split at r = isqrt(limit), and the large ones per cofactor.

    Returns the primes p <= r as ints, the primes p > r as an ascending
    int32 array, and for c = 1 .. limit // (r + 1) the number of those p
    with c*p <= limit: every n <= limit with a prime factor p > r is n = c*p
    with c in that range. A limit of SIEVE_LIMIT_CAP or more is refused
    before any prime is sieved.
    """
    if limit >= SIEVE_LIMIT_CAP:
        raise ValueError(f"limit {limit} is at or above the sieves' cap "
                         f"2^31 = {SIEVE_LIMIT_CAP}")
    import numpy as np
    ps = primes_upto(limit)
    root = math.isqrt(limit)
    k = int(np.searchsorted(ps, root, side="right"))
    small, large = ps[:k].tolist(), ps[k:].astype(PHI_DTYPE)
    del ps
    # int32 keys: a Python int key would make searchsorted copy large to int64
    cofactors = np.arange(1, limit // (root + 1) + 1, dtype=PHI_DTYPE)
    return small, large, np.searchsorted(large, limit // cofactors, side="right").tolist()


def mobius_sieve(limit: int) -> np.ndarray:
    """mu(n) for 0 <= n <= limit < 2^31 as an int8 array (mu(0) stored as 0)."""
    import numpy as np
    small, large, ends = _split_primes(limit)
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    for p in small:
        mu[p::p] *= -1
        mu[p * p::p * p] = 0
    # n = c*p with p > sqrt(limit) prime: mu(c) is final, and mu(n) = -mu(c);
    # c = 1 indexes by the primes themselves, with no copy of them
    mu[large] = -1
    for c, end in enumerate(ends[1:], 2):
        mu[c * large[:end]] = -mu[c]
    return mu


def totient_sieve(limit: int) -> np.ndarray:
    """phi(n) for 0 <= n <= limit < 2^31 as an int32 array."""
    import numpy as np
    small, large, ends = _split_primes(limit)
    phi = np.arange(limit + 1, dtype=PHI_DTYPE)
    for p in small:
        # in place: p still divides phi-so-far(n) for every multiple n of p
        multiples = phi[p::p]
        multiples //= p
        multiples *= p - 1
    # n = c*p with p > sqrt(limit) prime: phi(c) is final, and
    # phi(n) = phi(c) (p - 1). c = 1 indexes by the primes themselves, so
    # next to phi and the primes only one value array is held, or an index
    # array and a value array of at most half as many entries.
    phi[large] = large - 1
    for c, end in enumerate(ends[1:], 2):
        ps = large[:end]
        values = ps - 1
        values *= phi[c]
        phi[c * ps] = values
    return phi
