"""The Germain-pair counting functions and sums, each from one sieve pass.

Every pair command makes one pass of the segmented pair sieve
(sieve.pair_windows) up to its largest checkpoint, which yields the
ascending primes p with a*p + b prime one window at a time; each
checkpoint x reads the prefix p <= x. pair_sums gives pi_g(x), the length
of the prefix, and psi_g and psi0, which weight by the von Mangoldt
function, whose support is the prime powers. Each is the math.fsum of
three correctly rounded groups: the prime pairs themselves, n = p^k
(k >= 2) with a*n + b prime, and a*n + b = q^k (k >= 2) with n a prime
power. The last two hold only O(sqrt(a*x + b)) terms, whose weights come
from the sieve's primes and prime powers, without factoring; each is one
array ascending in n. The q^k are sieve.prime_powers(x, a, b), the prime
powers in the class of b mod a, so a large a lists a few powers, not one
per prime. reciprocal_sums gives the sums of 1/p and log p / p over the
Germain primes (a, b = 2, 1). census and reciprocal_sums refuse a range
the pair sieve cannot take (sieve.check_pair_range) before C2, and every
pass refuses it before it builds its checkpoint keys.

Every group is summed to the last checkpoint and cut at each one, through
one summation.PrefixSums per reduction: psi_g and psi0 of the pass are the
two groups of one, and so are the two weights of each prime-power group.
The pass is a flat stream of ascending arrays, one per residue class and
window, never merged: a checkpoint's count is the sum of its searchsorted
cuts over the arrays, and each array's terms are computed in place one
fixed-size slice at a time, both sums' terms of a slice added together
(summation.add_terms), so only one array and one slice's terms are alive
at a time. Each sum is
correctly rounded, the fsum of its whole prefix, so it depends neither on
the other checkpoints, nor on the window size, nor on how the terms are
split.

psi0_partition splits the divisor-expanded form of psi0(x) at a cutoff:
expanding each Lambda(2n+1) factor through Lambda(m) = -sum_{d|m} mu(d) log d
turns psi0 into a double sum over odd squarefree (d1, d2) of the Chebyshev
sums S(l) of Lambda(n) over n <= x with l = [d1, d2] | 2n+1. S vanishes for
l > 2x+1, so row d1 visits only d2 = g*k with g | d1, k odd and coprime to
d1, and l = d1*k <= 2x+1: O(x log^2 x) terms instead of x^2. The divisors
g of each row come from arith.factorize(d1), by trial division, as every
factorization of the library does. A row with d1 > x1 has no pair in the
box d1, d2 <= x1, so all of it is error, with no mask; at the usual
x1 = (log x)^2 that is about 99% of the rows. x is capped at
PARTITION_CAP, refused before any table.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from math import fsum
from typing import NamedTuple

import numpy as np

from .arith import divisors, factorize, mobius_sieve
from .constants import SingularValue
from .sieve import check_pair_range, is_prime, pair_windows, prime_powers, primes_upto
from .summation import PrefixSums, add_terms, checkpoint_keys, exact_sum, sums_upto


class CountReport(NamedTuple):
    x: int
    pi_g: int
    psi_g: float
    psi0: float
    hl_prediction: float
    ratio: float  # psi_g / (2 C2 x)


class PsiPartition(NamedTuple):
    main: float   # box d1, d2 <= x1
    error: float  # complement, summed as its own rows, never psi0 - main


def _flags(limit: int) -> np.ndarray:
    """The primes <= limit for psi0_partition; perfbench traces this name."""
    return primes_upto(limit)


def _pass(xs: Sequence[int], a: int, b: int,
          terms: Callable[[np.ndarray], tuple[np.ndarray, ...]]
          ) -> list[tuple[int, list[float]]]:
    """One pair-sieve pass to the last checkpoint, reduced one array at a time.

    terms(ps) gives one array of terms per sum, one entry per pair of the
    array ps. At each checkpoint x comes the number of pairs p <= x and,
    per sum, the correctly rounded sum of its terms over the p <= x: the
    sums are the groups of one PrefixSums. Each ascending array of the pass
    is cut at its own p <= x, its terms are computed one slice of
    summation.chunks at a time, and every sum's terms of a slice are added
    at once (add_terms); the array is dropped once they are added, so only
    one array and one slice's terms are alive at a time. The pair range of
    the largest x >= 2 is checked (check_pair_range), then the checkpoints,
    which ascend strictly and are >= 1 (checkpoint_keys), before any key is
    built; below 2 there is no pair, so no pass runs when the last one is.
    """
    if max(xs, default=0) >= 2:
        check_pair_range(max(xs), a, b)
    keys = checkpoint_keys(xs)
    last = xs[-1] if xs else 0
    counts = np.zeros(len(xs), dtype=np.int64)  # the pairs p <= x so far
    stream = PrefixSums(len(xs), len(terms(keys[:0])))  # a group per term array
    for ps in pair_windows(last, a, b) if last >= 2 else ():
        cuts = np.searchsorted(ps, keys, side="right")
        counts += cuts
        add_terms(stream, ps, terms, cuts)
        del ps
    sums = stream.sums()
    return [(n, sums[j::len(xs)]) for j, n in enumerate(counts.tolist())]


def pair_sums(xs: Sequence[int], a: int = 2,
              b: int = 1) -> list[tuple[int, float, float]]:
    """(pi_g, psi_g, psi0) at each ascending checkpoint x >= 1, from one pass.

    psi_g(x) = sum_{n<=x} Lambda(n) Lambda(a n + b) and psi0 weights by
    Lambda(a n + b)^2 instead; a checkpoint below 2 gives (0, 0.0, 0.0).
    """
    def terms(ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # a*p + b is formed in int64 and rounded to a double once
        m = ps * a
        m += b
        log_m = m.astype(np.float64)
        del m
        np.log(log_m, out=log_m)
        log_p = ps.astype(np.float64)
        np.log(log_p, out=log_p)
        # log_p * log_m ** power for powers 1 and 2, in place: the products
        # commute, so these are the same doubles, without temporary arrays
        squared = np.square(log_m)
        squared *= log_p
        log_m *= log_p
        return log_m, squared

    mains = _pass(xs, a, b, terms)
    x_max = xs[-1] if xs else 0
    # Lambda(n) of the prime powers n = p^k <= x_max with k >= 2, ascending
    weights = dict(prime_powers(x_max))
    # n = p^k with k >= 2 and a*n+b prime: (n, Lambda(n), log(a*n+b))
    powers = []
    for n, w in weights.items():
        m = a * n + b
        if m >= 2 and is_prime(m):
            powers.append((n, w, math.log(m)))
    # a*n+b = q^k with k >= 2 and Lambda(n) > 0: (n, Lambda(n), log q), with
    # Lambda(n) = log n for a prime n and from the table for a prime power
    companions = []
    for m, w in prime_powers(x_max, a, b):
        n = (m - b) // a
        wn = math.log(n) if is_prime(n) else weights.get(n, 0.0)
        if wn > 0.0:
            companions.append((n, wn, w))
    # psi at x is the fsum of the pass's sum and of each group's, one array
    # ascending in n per power of the weight, cut at every x
    groups = [sums_upto(np.array([n for n, _, _ in group], dtype=np.int64),
                        [np.array([w * v ** power for _, w, v in group])
                         for power in (1, 2)], xs)
              for group in (powers, companions)]
    return [(k, *map(fsum, zip(row, *(sums[j::len(xs)] for sums in groups))))
            for j, (k, row) in enumerate(mains)]


def reciprocal_sums(xs: Sequence[int], make_c2: Callable[[], SingularValue]
                    ) -> list[tuple[float, float, float]]:
    """(sum 1/p, sum log p / p, fit residual) over the Germain primes p <= x.

    One pass serves every ascending checkpoint x >= 2. The fit
    a0 log log x + a0/log x (a0 = 2 C2) is the shape the conjectured pair
    density implies for the log p / p sum; the residual is that sum minus
    the fit, and is only meaningful once log log x settles (x >= 16 or so).
    make_c2 returns C2; it is called once, after the pair range and the
    checkpoints (strictly ascending, x >= 2) are checked and before the pass.
    """
    if xs:
        check_pair_range(max(xs), 2, 1)
    checkpoint_keys(xs, 2)
    a0 = 2.0 * make_c2().value

    def terms(ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # math.log, not np.log: the last bits of the two differ
        log_over_p = np.fromiter(map(math.log, ps), np.float64, ps.size)
        log_over_p /= ps
        return 1.0 / ps, log_over_p

    out = []
    for x, (_, (inverse, value)) in zip(xs, _pass(xs, 2, 1, terms)):
        fit = a0 * math.log(math.log(x)) + a0 / math.log(x)
        out.append((inverse, value, value - fit))
    return out


# Largest psi0-partition checkpoint: `psi0-partition --x 3e5` took 4.1 s and
# 65 MB peak RSS in a fresh process (2-core Xeon, Python 3.11, numpy 2.4)
PARTITION_CAP = 300_000


def psi0_partition(x: int, x1: float) -> PsiPartition:
    """Split the divisor-expanded psi0(x) at d <= x1 vs the complement.

    main + error reproduces psi0(x) up to floating rounding; the split is
    an algebraic rearrangement, not an approximation. x1 may be fractional
    (cutoffs like (log x)^2 are typical). Row d1 factors d1 with
    arith.factorize, and a row with d1 > x1 is all error. An x below 1 or
    above PARTITION_CAP is refused before any table.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if x > PARTITION_CAP:
        raise ValueError(f"x={x} is above the cap {PARTITION_CAP}: the partition "
                         "walks every odd squarefree d <= 2x+1 in Python")
    top = 2 * x + 1
    if not 1 <= x1 <= top:
        raise ValueError(f"x1={x1} outside [1, 2x+1]")
    lam = np.zeros(x + 1)  # Lambda(n) at index n
    for n, weight in [(p, math.log(p)) for p in _flags(x).tolist()] + prime_powers(x):
        lam[n] = weight
    mu = mobius_sieve(top)
    odd_sf = np.flatnonzero(mu[1::2]) * 2 + 1  # 1, 3, 5, 7, 11, 13, 15, ...
    dlist = odd_sf[1:]
    w = np.zeros(top + 1)
    w[dlist] = mu[dlist].astype(np.float64) * np.log(dlist.astype(np.float64))
    # S[d] = sum of Lambda(n) over n <= x with d | 2n+1, added in ascending n
    S = np.zeros(top + 1)
    for d in dlist.tolist():
        S[d] = np.cumsum(lam[(d - 1) // 2::d])[-1]
    # row d1 visits the odd squarefree k <= (2x+1) // d1, odd_sf[:end]
    ends = np.searchsorted(odd_sf, top // dlist, side="right").tolist()
    # one fsum per row and box side, then over rows; skipped pairs are zeros
    main_rows, err_rows = [], []
    for d1, end in zip(dlist.tolist(), ends):
        ks = odd_sf[:end]
        ks = ks[np.gcd(ks, d1) == 1]
        d2 = np.multiply.outer(divisors(factorize(d1)), ks)
        terms = S[d1 * ks] * (w[d1] * w[d2])
        if d1 > x1:  # no pair of the row is in the box
            err_rows.append(exact_sum(terms.ravel()))
            continue
        box = d2 <= x1
        main_rows.append(exact_sum(terms[box]))
        err_rows.append(exact_sum(terms[~box]))
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


def _prediction_domain(x: float, a: int, b: int) -> None:
    """Refuse an x or (a, b) outside the domain of hl_prediction."""
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    if 2 * a + b < 2:
        raise ValueError(f"2a+b must be >= 2 for the prediction from t = 2, "
                         f"got a={a}, b={b}, 2a+b={2 * a + b}")


def hl_prediction(x: float, a: int = 2, b: int = 1, *,
                  c2: SingularValue) -> float:
    """2 C2 * integral_2^x dt / (log t * log(a t + b)), adaptive Simpson.

    The integrand needs log(a t + b) > 0 on [2, x]: a >= 1 and 2a + b >= 2.
    """
    _prediction_domain(x, a, b)
    if x == 2:
        return 0.0
    f = lambda t: 1.0 / (math.log(t) * math.log(a * t + b))
    return 2.0 * c2.value * _adaptive_simpson(f, 2.0, float(x))


def census(xs: Sequence[int], a: int, b: int,
           make_c2: Callable[[], SingularValue]) -> list[CountReport]:
    """Census rows at the ascending checkpoints xs, from one pair-sieve pass.

    Each row holds pi_g(x), psi_g(x), psi0(x), the integral prediction and
    the ratio psi_g / (2 C2 x). make_c2 returns C2. It is called once, after
    every (a, b) and x that the prediction or the pair sieve refuses, and
    any checkpoints not strictly ascending from x >= 2, have been refused.
    The predictions come before the pass.
    """
    if xs:
        _prediction_domain(max(xs), a, b)
        check_pair_range(max(xs), a, b)
    checkpoint_keys(xs, 2)
    c2 = make_c2()
    predictions = [hl_prediction(x, a, b, c2=c2) for x in xs]
    return [CountReport(x=x, pi_g=pi, psi_g=pg, psi0=p0, hl_prediction=hl,
                        ratio=pg / (2.0 * c2.value * x))
            for x, hl, (pi, pg, p0) in zip(xs, predictions, pair_sums(xs, a, b))]
