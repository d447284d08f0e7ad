"""Germain-pair enumeration and the weighted counting functions built on it.

Every pair quantity comes from one pass of the segmented pair sieve
(sieve.pair_primes) up to the largest checkpoint, which yields the
ascending primes p with a*p + b prime. pi_g(x) is the length of the prefix
p <= x. psi_g and psi0 weight by the von Mangoldt function, whose support is
the prime powers, and are summed as three math.fsum groups over the same
prefix: the prime pairs themselves, n = p^k (k >= 2) with a*n + b prime, and
a*n + b = q^k (k >= 2) with n a prime power. The last two groups hold only
O(sqrt(a*x + b)) terms. fsum rounds correctly, so a checkpoint's value does
not depend on the other checkpoints of the pass or on the thread count.

psi0_partition splits the divisor-expanded form of psi0(x) at a cutoff:
expanding each Lambda(2n+1) factor through Lambda(m) = -sum_{d|m} mu(d) log d
turns psi0 into a double sum over (d1, d2) with inner progression-constrained
Chebyshev sums, and the box d1, d2 <= x1 (main term) plus its complement
(error term) reproduce psi0 exactly up to rounding.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from math import fsum
from typing import NamedTuple

import numpy as np

from .arith import divisors, mobius_sieve, von_mangoldt
from .constants import SingularValue
from .sieve import is_prime, pair_primes, prime_powers, primes_upto


@dataclass(frozen=True)
class GermainPair:
    """A prime p whose companion q = a*p + b is also prime."""

    p: int
    a: int
    b: int
    q: int


@dataclass(frozen=True)
class CountReport:
    x: int
    pi_g: int
    psi_g: float
    psi0: float
    hl_prediction: float
    ratio: float  # psi_g / (2 C2 x)


class PsiPartition(NamedTuple):
    main: float   # box d1, d2 <= x1
    error: float  # complement, summed as three disjoint blocks


class GermainLogpSum(NamedTuple):
    value: float
    fit_residual: float  # value - (a0 log log x + a0 / log x), a0 = 2 C2


def _flags(limit: int) -> np.ndarray:
    """The primes <= limit for psi0_partition; perfbench traces this name."""
    return primes_upto(limit)


def germain_pairs(x: int, a: int = 2, b: int = 1) -> list[GermainPair]:
    """All primes p <= x with a*p + b prime, ascending."""
    return [GermainPair(p=p, a=a, b=b, q=a * p + b)
            for p in pair_primes(x, a, b).tolist()]


def _pair_sums(xs: Sequence[int], a: int, b: int,
               threads: int) -> list[tuple[int, float, float]]:
    """(pi_g, psi_g, psi0) at each ascending checkpoint, from one sieve pass."""
    if not xs:
        return []
    if any(y <= x for x, y in zip(xs, xs[1:])):
        raise ValueError(f"checkpoints must be strictly ascending: {list(xs)}")
    if xs[0] < 2:
        raise ValueError(f"x must be >= 2, got {xs[0]}")
    x_max = xs[-1]
    ps = pair_primes(x_max, a, b, threads=threads)
    log_p = np.log(ps.astype(np.float64))
    log_m = np.log((a * ps + b).astype(np.float64))
    main = {power: log_p * log_m ** power for power in (1, 2)}
    # n = p^k with k >= 2 and a*n+b prime: (n, Lambda(n), log(a*n+b))
    powers = []
    for n, w in prime_powers(x_max):
        m = a * n + b
        if m >= 2 and is_prime(m):
            powers.append((n, w, math.log(m)))
    # a*n+b = q^k with k >= 2 and Lambda(n) > 0: (n, Lambda(n), log q)
    companions = []
    for m, w in prime_powers(a * x_max + b):
        n = m - b
        if n > 0 and n % a == 0:
            n //= a
            if 1 <= n <= x_max:
                wn = von_mangoldt(n)
                if wn > 0.0:
                    companions.append((n, wn, w))
    out = []
    for x in xs:
        k = int(np.searchsorted(ps, x, side="right"))
        psi = []
        for power in (1, 2):
            parts = [fsum(main[power][:k]),
                     fsum(w * lm ** power for n, w, lm in powers if n <= x),
                     fsum(wn * w ** power for n, wn, w in companions if n <= x)]
            psi.append(fsum(parts))
        out.append((k, psi[0], psi[1]))
    return out


def psi_g(x: int, a: int = 2, b: int = 1) -> float:
    """sum_{n<=x} Lambda(n) Lambda(a n + b)."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if x == 1:
        return 0.0
    return _pair_sums([x], a, b, 1)[0][1]


def psi0(x: int, a: int = 2, b: int = 1) -> float:
    """sum_{n<=x} Lambda(n) Lambda(a n + b)^2, the extra-weighted census."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if x == 1:
        return 0.0
    return _pair_sums([x], a, b, 1)[0][2]


def psi0_partition(x: int, x1: float) -> PsiPartition:
    """Split the divisor-expanded psi0(x) at d <= x1 vs the complement.

    main + error reproduces psi0(x) up to floating rounding; the split is
    an algebraic rearrangement, not an approximation. x1 may be fractional
    (cutoffs like (log x)^2 are typical).
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    top = 2 * x + 1
    if not 1 <= x1 <= top:
        raise ValueError(f"x1={x1} outside [1, 2x+1]")
    # Chebyshev mass S[q] = sum of Lambda(n) over n <= x with q | 2n+1
    weighted = [(p, math.log(p)) for p in _flags(x).tolist()]
    weighted = sorted(weighted + prime_powers(x))
    S = np.zeros(top + 1)
    for n, w in weighted:
        for d in divisors(2 * n + 1):
            S[d] += w
    mu = mobius_sieve(top)
    d_all = np.arange(top + 1, dtype=np.int64)
    keep = (mu != 0) & (d_all % 2 == 1) & (d_all >= 3)
    dlist = d_all[keep]
    w = mu[keep].astype(np.float64) * np.log(dlist.astype(np.float64))
    in_box = dlist <= x1
    main_rows, err_rows = [], []
    block = 512
    for i0 in range(0, dlist.size, block):
        i1 = min(i0 + block, dlist.size)
        l = np.lcm.outer(dlist[i0:i1], dlist)
        vals = np.where(l <= top, S[np.minimum(l, top)], 0.0)
        vals *= w[i0:i1, None] * w[None, :]
        for i in range(i1 - i0):
            if in_box[i0 + i]:
                main_rows.append(fsum(vals[i, in_box].tolist()))
                err_rows.append(fsum(vals[i, ~in_box].tolist()))
            else:
                err_rows.append(fsum(vals[i].tolist()))
    return PsiPartition(main=fsum(main_rows), error=fsum(err_rows))


# Relative tolerance and recursion depth of the adaptive Simpson rule
_SIMPSON_REL_TOL = 1e-8
_SIMPSON_MAX_DEPTH = 60


def _adaptive_simpson(f, a: float, b: float) -> float:
    def estimate(lo, flo, mid, fmid, hi, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, flo, mid, fmid, hi, fhi, whole, eps, depth):
        lm = (lo + mid) / 2.0
        rm = (mid + hi) / 2.0
        flm, frm = f(lm), f(rm)
        left = estimate(lo, flo, lm, flm, mid, fmid)
        right = estimate(mid, fmid, rm, frm, hi, fhi)
        delta = left + right - whole
        if depth >= _SIMPSON_MAX_DEPTH or abs(delta) <= 15.0 * eps:
            return left + right + delta / 15.0
        return (recurse(lo, flo, lm, flm, mid, fmid, left, eps / 2.0, depth + 1)
                + recurse(mid, fmid, rm, frm, hi, fhi, right, eps / 2.0, depth + 1))

    mid = (a + b) / 2.0
    fa, fm, fb = f(a), f(mid), f(b)
    whole = estimate(a, fa, mid, fm, b, fb)
    eps = abs(whole) * _SIMPSON_REL_TOL if whole != 0.0 else _SIMPSON_REL_TOL
    return recurse(a, fa, mid, fm, b, fb, whole, eps, 0)


def hl_prediction(x: float, a: int = 2, b: int = 1,
                  c2: SingularValue | None = None) -> float:
    """2 C2 * integral_2^x dt / (log t * log(a t + b)), adaptive Simpson."""
    if c2 is None:
        raise ValueError("a twin-prime-constant value is required")
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    if x == 2:
        return 0.0
    f = lambda t: 1.0 / (math.log(t) * math.log(a * t + b))
    return 2.0 * c2.value * _adaptive_simpson(f, 2.0, float(x))


def germain_reciprocal_sum(x: int) -> float:
    """sum of 1/p over primes p <= x with 2p+1 prime."""
    return fsum(1.0 / p for p in pair_primes(x, 2, 1).tolist())


def germain_logp_sum(x: int, c2: SingularValue) -> GermainLogpSum:
    """sum of log p / p over Germain primes p <= x, with its log-log fit.

    The fit a0 log log x + a0/log x (a0 = 2 C2) is the shape the conjectured
    pair density implies; the residual is only meaningful once x is large
    enough for log log x to settle (x >= 16 or so).
    """
    value = fsum(math.log(p) / p for p in pair_primes(x, 2, 1).tolist())
    a0 = 2.0 * c2.value
    fit = a0 * math.log(math.log(x)) + a0 / math.log(x)
    return GermainLogpSum(value=value, fit_residual=value - fit)


def census(xs: Sequence[int], a: int, b: int, c2: SingularValue, *,
           threads: int = 1) -> list[CountReport]:
    """Census rows at the ascending checkpoints xs, from one pair-sieve pass.

    Each row holds pi_g(x), psi_g(x), psi0(x), the integral prediction and
    the ratio psi_g / (2 C2 x).
    """
    return [CountReport(x=x, pi_g=pi, psi_g=pg, psi0=p0,
                        hl_prediction=hl_prediction(x, a, b, c2),
                        ratio=pg / (2.0 * c2.value * x))
            for x, (pi, pg, p0) in zip(xs, _pair_sums(xs, a, b, threads))]
