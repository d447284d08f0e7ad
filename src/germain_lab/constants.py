"""The twin-prime constant and the prime-pair singular series.

C2 = prod_{p>=3} (1 - 1/(p-1)^2) is evaluated as a truncated Euler product
with a rigorous truncation bound carried alongside the value, so every
downstream comparison can be tolerance-aware. The classical value is
0.66016181584686957... (OEIS A005597); a direct product at cutoff 10^8
reaches it to ~9 digits, which is all this library promises.

The product is summed as logs, and its value does not depend on how the
sieve tiles the primes. Each prime p >= 3 falls in one interval
3 + 2^21*k <= p < 3 + 2^21*(k+1) of a fixed n-grid, and one PrefixSums,
a group of one checkpoint per interval, gives each interval's correctly
rounded sum of log1p(-1/(p-1)^2) terms, the fsum of its terms; the value
is exp of the fsum of those partials. The terms are computed in place by
summation.add_terms, one fixed-size slice of a window's primes at a time,
each slice one array cut at the grid, so no float array is as large as a
window's primes, and a correctly rounded sum does not depend on the order
or the slices its terms come in.
The grid is where the odd-integer windows of 2^20 entries, on which the
product was once reduced, ended, so the partials, and so every printed
bit, are those of that tiling at every cutoff.

Importing the module loads numpy. fractions loads only when
singular_series computes its exact factor.
"""

from __future__ import annotations

import math
from math import fsum
from typing import NamedTuple

import numpy as np

from . import sieve
from .arith import factorize
from .summation import PrefixSums, add_terms

# Largest prime cutoff of twin_prime_constant. At the cap the product took
# 26 s at 33 MB RSS, and 1.7-1.9 s at 10^9 at 32 MB (2-core Xeon, Python
# 3.11, numpy 2.4).
C2_CUTOFF_CAP = 10 ** 10
# Largest offset singular_series takes: trial division of the prime
# 99,999,999,999,973 takes 0.40-0.44 s on the same machine.
OFFSET_CAP = 10 ** 14
# The step of the n-grid the product's partial sums are cut on (see the
# module docstring); the sieve's windows do not depend on it, nor it on them.
_C2_STEP = 1 << 21


class SingularValue(NamedTuple):
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


def _log_terms(primes: np.ndarray) -> tuple[np.ndarray]:
    """log1p(-1.0 / ((p - 1.0) * (p - 1.0))) per prime p, computed in place,
    as the one array that add_terms takes per slice."""
    t = primes.astype(np.float64)
    t -= 1.0
    t *= t
    np.divide(-1.0, t, out=t)
    np.log1p(t, out=t)
    return (t,)


def twin_prime_constant(prime_cutoff: int) -> SingularValue:
    """prod_{3 <= p <= cutoff} (1 - 1/(p-1)^2) with a rigorous tail bound.

    The bound sum_{p > P} 1/(p-1)^2 < 2/(P log P) follows from partial
    summation against pi(t) < 2t/log t, and since the omitted factors all
    lie in (0, 1) the product is within that bound of the full constant.
    """
    if prime_cutoff < 3:
        raise ValueError(f"cutoff must be >= 3, got {prime_cutoff}")
    if prime_cutoff > C2_CUTOFF_CAP:
        raise ValueError(f"cutoff {prime_cutoff} is above the cap {C2_CUTOFF_CAP}")
    # the end of each interval of the grid up to the cutoff
    ends = np.arange(3 + _C2_STEP, prime_cutoff + _C2_STEP + 1, _C2_STEP)
    partials = PrefixSums(1, ends.size)
    for primes in sieve.prime_windows(prime_cutoff):
        primes = primes[np.searchsorted(primes, 3):]  # a view: the product starts at 3
        add_terms(partials, primes, _log_terms, np.searchsorted(primes, ends))
        del primes  # before the next window is struck
    value = math.exp(fsum(partials.sums()))
    tail = 2.0 / (prime_cutoff * math.log(prime_cutoff))
    return SingularValue(d=2, value=value, prime_cutoff=prime_cutoff, tail_bound=tail)


def check_offset(d: int, name: str = "offset") -> None:
    """Refuse an offset singular_series cannot take: below 1 or above OFFSET_CAP."""
    if d < 1:
        raise ValueError(f"{name} must be >= 1, got {d}")
    if d > OFFSET_CAP:
        raise ValueError(f"{name} {d} is above the factoring cap {OFFSET_CAP}")


def singular_series(d: int, c2: SingularValue) -> SingularValue:
    """Singular series for the pair offset d.

    Zero for odd d; for d = 2m it equals 2*C2*prod_{2<p|m} (p-1)/(p-2),
    so the value depends only on the odd prime support of m. The rational
    factor is exact, hence the tail bound just scales with it.
    """
    from fractions import Fraction
    check_offset(d)
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
