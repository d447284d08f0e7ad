"""Censuses of integers and prime-power weights in arithmetic progressions,
plus a numerical validator for the mean-square large-sieve inequality

    sum_{q<=Q} q sum_{a mod q} | sum_{n<=x, n=a(q)} a_n - (1/q) sum_{n<=x} a_n |^2
        <= Q (10Q + 2 pi x) sum_{n<=x} |a_n|^2 .

Counting in a progression is done exactly in closed form (the error against
x/q never exceeds 1 in absolute value), so no analytic error model is
needed anywhere downstream. Residues live in [0, q); a residue quoted as q
means 0. Every sum over a numpy array is correctly rounded: the weighted
census streams the sieve's prime windows into one summation.PrefixSums,
and the large-sieve check sums by summation.exact_sum; only the sums of
Python floats, one per modulus, are math.fsum. The seeded sign sequence
takes its bits from the stdlib's random.Random, as the primroot sweeps
do, so no command loads numpy.random.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from itertools import repeat
from math import fsum
from typing import NamedTuple

import numpy as np

from .arith import totient
from .sieve import prime_powers, prime_windows, primes_upto
from .summation import PrefixSums, checkpoint_keys, chunks, exact_sum

# Largest checkpoint of chebyshev_ap, kept as a bound on time: its memory is
# one sieve window's, whatever x is. On a 2-core Xeon, ap-census --weighted
# --x 1e8 took 0.78-0.79 s at 32.4 MB peak RSS with --q 3, and 1.9-2.3 s at
# 73 MB with --q 1e5, the most rows the report admits.
CHEBYSHEV_X_CAP = 100_000_000


class ApCensus(NamedTuple):
    x: int
    q: int
    a: int
    count: int
    expected: float  # x / q
    residual: float  # count - x/q, always in (-1, 1)


class ChebyshevAp(NamedTuple):
    """sum of Lambda(n) over n <= x, n = a (mod q), with the PNT-in-AP target."""

    x: int
    q: int
    a: int
    value: float
    expected: float | None  # x / phi(q) when gcd(a, q) = 1, else None
    residual: float | None


class SieveInequalityReport(NamedTuple):
    x: int
    Q: int
    lhs: float
    rhs: float
    slack: float  # rhs - lhs; nonnegative is the inequality's content


def count_ap(x: int, q: int, a: int) -> ApCensus:
    """Exact count of 1 <= n <= x with n = a (mod q), in closed form."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if not 0 <= a < q:
        raise ValueError(f"residue a={a} outside [0, {q})")
    if a == 0:
        count = x // q
    elif a <= x:
        count = (x - a) // q + 1
    else:
        count = 0
    expected = x / q
    return ApCensus(x=x, q=q, a=a, count=count, expected=expected,
                    residual=count - expected)


def chebyshev_ap(xs: Sequence[int], q: int) -> list[ChebyshevAp]:
    """The Lambda-weighted count of each class a mod q, x by x, then a = 0..q-1.

    Raw sums, with no gcd filter; only a class with gcd(a, q) = 1 gets the
    x / phi(q) target. One pass of sieve.prime_windows to the last of the
    strictly ascending xs serves every x: each slice of chunks of a
    window's primes, and of the O(sqrt(x)) prime powers, is sorted stably
    by class and cut at every (a, x) into one PrefixSums, a group per
    class. Only one window's primes and one slice's terms are held, never
    every prime.
    """
    top = max(xs, default=0)
    if top > CHEBYSHEV_X_CAP:
        raise ValueError(f"x {top} is above the prime table's cap {CHEBYSHEV_X_CAP}")
    checkpoints = checkpoint_keys(xs)
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    classes = PrefixSums(len(xs), q)  # a group of checkpoints per class

    def add(ns: np.ndarray, ws: np.ndarray | None) -> None:
        """Add the terms ws of the ascending ns <= top, log n if ws is None,
        to their classes, one slice of chunks at a time."""
        for n, w in zip(chunks(ns), repeat(None) if ws is None else chunks(ws)):
            a = n % q
            order = np.argsort(a, kind="stable")
            w = np.log(n[order], dtype=np.float64) if w is None else w[order]
            del order
            # the cut of (a, x_j), at a * len(xs) + j, follows the terms of
            # the classes below a and those of class a up to x_j
            a *= len(xs)
            a += np.searchsorted(checkpoints, n)
            classes.add([w], np.cumsum(np.bincount(a, minlength=q * len(xs))))

    for window in prime_windows(top):
        add(window, None)
        del window  # before the next window is struck
    powers = np.array(prime_powers(top), dtype=np.float64).reshape(-1, 2)  # (n, log p)
    add(powers[:, 0].astype(np.int64), powers[:, 1])
    phi, values = totient(q), classes.sums()
    return [ChebyshevAp(x, q, a, v, x / phi, v - x / phi) if math.gcd(a, q) == 1
            else ChebyshevAp(x, q, a, v, None, None)
            for j, x in enumerate(xs) for a, v in enumerate(values[j::len(xs)])]


def ones_sequence(x: int) -> np.ndarray:
    return np.ones(x, dtype=np.float64)


def prime_indicator_sequence(x: int) -> np.ndarray:
    seq = np.zeros(x)
    seq[primes_upto(x) - 1] = 1.0
    return seq


def random_sign_sequence(x: int, seed: int) -> np.ndarray:
    """x signs +-1.0: a_n is +1 where bit n - 1 of Random(seed).getrandbits(x) is set.

    The stdlib's Mersenne Twister, whose seeded stream Python keeps from
    version to version, so no numpy.random is loaded. A negative seed is
    refused: Random would seed it as its absolute value.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    bits = random.Random(seed).getrandbits(x).to_bytes((x + 7) // 8, "little")
    seq = np.unpackbits(np.frombuffer(bits, dtype=np.uint8), count=x,
                        bitorder="little").astype(np.float64)
    seq *= 2.0
    seq -= 1.0
    return seq


def large_sieve_check(x: int, Q: int, sequence: np.ndarray) -> SieveInequalityReport:
    """Evaluate both sides of the inequality for a_1..a_x (sequence[i] = a_{i+1}).

    The left side is O(x Q) via per-modulus class sums; desk scale only.
    A class sum adds its a_n in ascending n, exact for integer a_n. Every
    other sum is correctly rounded: the sums over x terms and the q-term
    sums of each modulus by exact_sum, which builds no x-element list, so
    each nonzero a_n, a_n^2 and squared class deviation must lie in
    [2^-1000, 2^900] in magnitude; the sum over moduli by fsum.
    """
    if Q < 1:
        raise ValueError(f"Q must be >= 1, got {Q}")
    if Q > x:
        raise ValueError(f"Q={Q} exceeds x={x}")
    seq = np.asarray(sequence, dtype=np.float64)
    if seq.shape != (x,):
        raise ValueError(f"sequence must have length x={x}")
    total = exact_sum(seq)
    sumsq = exact_sum(seq * seq)
    lhs_terms = []
    for q in range(1, Q + 1):
        # entry j sums the a_n with n = j + 1 (mod q), in ascending n; the
        # class order is immaterial to the sum of squared deviations
        class_sums = seq[:x - x % q].reshape(-1, q).sum(axis=0)
        class_sums[:x % q] += seq[x - x % q:]
        dev = class_sums - total / q
        lhs_terms.append(q * exact_sum(dev * dev))
    lhs = fsum(lhs_terms)
    rhs = Q * (10.0 * Q + 2.0 * math.pi * x) * sumsq
    return SieveInequalityReport(x=x, Q=Q, lhs=lhs, rhs=rhs, slack=rhs - lhs)
