"""The twin-prime constant and the prime-pair singular series.

C2 = prod_{p>=3} (1 - 1/(p-1)^2) is evaluated as a truncated Euler product
with a rigorous truncation bound carried alongside the value, so every
downstream comparison can be tolerance-aware. The classical value is
0.66016181584686957... (OEIS A005597); a direct product at cutoff 10^8
reaches it to ~9 digits, which is all this library promises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import fsum

import numpy as np

from . import sieve
from .arith import factorize
from .sieve import _map_windows, _odd_primes, _windows, primes_upto


@dataclass(frozen=True)
class SingularValue:
    """A value of the pair singular series, with its truncation error.

    d is the pair offset the series belongs to (d=2 is the twin/Germain
    case, i.e. C2 itself before the factor 2). tail_bound is an upper bound
    on |value - exact|, inherited from the prime cutoff of the underlying
    Euler product.
    """

    d: int
    value: float
    prime_cutoff: int
    tail_bound: float


def _segment_log_sum(lo: int, hi: int, base: list[int]) -> float:
    primes = _odd_primes(lo, hi, base)
    pm1 = primes.astype(np.float64) - 1.0
    return fsum(np.log1p(-1.0 / (pm1 * pm1)).tolist())


def twin_prime_constant(prime_cutoff: int, *, threads: int = 1) -> SingularValue:
    """prod_{3 <= p <= cutoff} (1 - 1/(p-1)^2) with a rigorous tail bound.

    The bound sum_{p > P} 1/(p-1)^2 < 2/(P log P) follows from partial
    summation against pi(t) < 2t/log t, and since the omitted factors all
    lie in (0, 1) the product is within that bound of the full constant.
    Segments have fixed boundaries and are reduced in ascending order, so
    the result is independent of the thread count.
    """
    if prime_cutoff < 3:
        raise ValueError(f"cutoff must be >= 3, got {prime_cutoff}")
    base = primes_upto(math.isqrt(prime_cutoff))[1:].tolist()
    partials = _map_windows(lambda lo, hi: _segment_log_sum(lo, hi, base),
                            _windows(3, prime_cutoff, 2 * sieve.PAIR_WINDOW),
                            threads)
    value = math.exp(fsum(partials))
    tail = 2.0 / (prime_cutoff * math.log(prime_cutoff))
    return SingularValue(d=2, value=value, prime_cutoff=prime_cutoff, tail_bound=tail)


def singular_series(d: int, c2: SingularValue) -> SingularValue:
    """Singular series for the pair offset d.

    Zero for odd d; for d = 2m it equals 2*C2*prod_{2<p|m} (p-1)/(p-2),
    so the value depends only on the odd prime support of m. The rational
    factor is exact, hence the tail bound just scales with it.
    """
    if d < 1:
        raise ValueError(f"offset must be >= 1, got {d}")
    if d % 2 == 1:
        return SingularValue(d=d, value=0.0, prime_cutoff=c2.prime_cutoff, tail_bound=0.0)
    m = d // 2
    ratio = Fraction(1)
    for p, _ in factorize(m):
        if p > 2:
            ratio *= Fraction(p - 1, p - 2)
    scale = 2.0 * float(ratio)
    return SingularValue(d=d, value=scale * c2.value,
                         prime_cutoff=c2.prime_cutoff,
                         tail_bound=scale * c2.tail_bound)
