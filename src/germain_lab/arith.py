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


def _split_primes(limit: int) -> tuple[list[int], np.ndarray, int]:
    """The primes <= limit split at r = isqrt(limit), and the largest cofactor.

    Returns the primes p <= r as ints, the primes p > r as an ascending
    int64 array, and limit // (r + 1): every n <= limit with a prime factor
    p > r is n = c*p with c at most that.
    """
    import numpy as np
    ps = primes_upto(limit)
    root = math.isqrt(limit)
    k = int(np.searchsorted(ps, root, side="right"))
    return ps[:k].tolist(), ps[k:], limit // (root + 1)


def mobius_sieve(limit: int) -> np.ndarray:
    """mu(n) for 0 <= n <= limit as an int8 array (mu(0) stored as 0)."""
    import numpy as np
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    small, large, cofactors = _split_primes(limit)
    for p in small:
        mu[p::p] *= -1
        mu[p * p::p * p] = 0
    # n = c*p with p > sqrt(limit) prime: mu(c) is final, and mu(n) = -mu(c)
    for c in range(1, cofactors + 1):
        ps = large[:np.searchsorted(large, limit // c, side="right")]
        mu[c * ps] = -mu[c]
    return mu


def totient_sieve(limit: int) -> np.ndarray:
    """phi(n) for 0 <= n <= limit as an int64 array."""
    import numpy as np
    phi = np.arange(limit + 1, dtype=np.int64)
    small, large, cofactors = _split_primes(limit)
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
    for c in range(2, cofactors + 1):
        ps = large[:np.searchsorted(large, limit // c, side="right")]
        values = ps - 1
        values *= phi[c]
        phi[c * ps] = values
    return phi

