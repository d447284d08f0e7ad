"""Exact gcd/lcm/phi identities and the rearranged double sums they support.

The three identity residuals are computed in exact integer arithmetic after
cross-multiplication, one row m at a time over every n, so their contract
is "exactly 0", not an epsilon. The double sums come in a brute O(x^2) form
(the oracle) and a regrouped form derived from d | gcd(m, n):

    sum_{m,n<=x} log m log n / [m,n]
        = sum_d phi(d)/d^2 * (sum_{r<=x/d} log(dr)/r)^2

    B(x) = sum_{m,n<=x} mu(m)mu(n) log m log n / phi([m,n])
         = sum_d mu^2(d)/d * sum_e mu(e)/e *
               (sum_{r<=x/d, e|r, (d,r)=1} mu(r) log(dr) / phi(r))^2

The second regrouping needs the inner e-level because phi(rs) equals
phi(r)phi(s) * g/phi(g) with g = gcd(r,s); collapsing it to a single square
(i.e. pretending phi(rs) = phi(r)phi(s)) is not an identity, and that
single-square shortcut is kept available only as method "relaxed" for
diagnostics.

Every real-valued sum is correctly rounded, so it does not depend on the
order of its terms: a sum over a numpy array by summation.exact_sum, and
the sums over rows, of Python floats, by math.fsum. A brute row's
gcd(m, n) comes from the divisors of m, written at their multiples in
ascending order, not from np.gcd over every n. A double sum's terms change
with x, so it is taken anew at each checkpoint.

The single sums, squarefree_harmonic_sums, mobius_log_sums and the twisted
sums, are prefix sums over the squarefree n: one mu table to the last
checkpoint, and one summation.PrefixSums cut at every checkpoint. The
`sums` command reads this module by the FORMULAS table that cli keeps
beside the command, so importing the CLI loads none of it.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from math import fsum

import numpy as np

from .arith import divisors, factorize, mobius_sieve, totient_sieve
from .constants import SingularValue, check_offset, singular_series
from .summation import exact_sum, sums_upto

BRUTE_CAP = 2000  # 4e6 terms; the rearranged forms carry the load beyond
# Largest checkpoint of the single sums, whose mu table (and the twisted
# sums' phi table) is as long as it. On a 2-core Xeon at the cap,
# sums --formula mobius-log took 4.7 s and 1.03 GB, and twisted-sums --m 1
# --no-log, which keeps the most n, 10.4 s and 1.78 GB.
MOBIUS_X_CAP = 100_000_000


# -- exact identities -------------------------------------------------------

IDENTITIES = ("gcd-phi-divisor", "lcm-reciprocal", "phi-lcm-reciprocal")
# Largest max for identity_residual_rows: its phi table up to max^2 is
# 8 * (max^2 + 1) bytes, about 72 MB at the cap.
IDENTITY_CAP = 3000


def identity_residual_rows(top: int):
    """Yield (m, residuals) for m = 1..top, row by row.

    residuals holds one int64 array per identity of IDENTITIES, entry n - 1
    for the pair (m, n), n = 1..top, each zero iff the identity holds there:

        sum_{d|g} phi(d) - g
        m*n - [m,n] * sum_{d|g} phi(d)
        phi(mn) - phi([m,n]) * sum_{d|g} phi(d)        with g = gcd(m, n)

    phi comes from one totient_sieve(top^2), and sum_{d|k} phi(d) from
    striding phi(d) over the multiples k <= top of each d. Every value stays
    below top^3, far inside int64 for any top whose table fits in memory.
    """
    if top < 1:
        raise ValueError(f"top must be >= 1, got {top}")
    phi = totient_sieve(top * top)
    phi_sum = np.zeros(top + 1, dtype=np.int64)
    for d in range(1, top + 1):
        phi_sum[d::d] += phi[d]
    n = np.arange(1, top + 1, dtype=np.int64)
    for m in range(1, top + 1):
        g = np.gcd(m, n)
        s = phi_sum[g]
        lcm = (m // g) * n
        yield m, (s - g, m * n - lcm * s, phi[m * n] - phi[lcm] * s)


# -- double sums ------------------------------------------------------------

def _gcd_row(m: int, x: int) -> np.ndarray:
    """gcd(m, n) for n = 1..x (int64), from the divisors of m.

    Each divisor d > 1 of m is written at the multiples of d, in ascending
    order of d, so the last write at n is the largest divisor of m that
    divides n.
    """
    g = np.ones(x, dtype=np.int64)
    for d in sorted(divisors(factorize(m)))[1:]:
        g[d - 1::d] = d
    return g


def log_lcm_double_sum(x: int, method: str = "brute") -> float:
    """sum_{m,n<=x} log m log n / [m,n].

    method: "brute" (row-major double loop, capped), "rearranged" (the exact
    regrouping over common divisors d), or "relaxed" (same shape but with
    log r in place of log(dr); a diagnostic lower envelope, not an identity).
    """
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    if method == "brute":
        if x > BRUTE_CAP:
            raise ValueError(f"brute method capped at x={BRUTE_CAP}")
        n = np.arange(1, x + 1, dtype=np.int64)
        logs = np.log(n.astype(np.float64))
        rows = []
        for m in range(2, x + 1):
            l = (m // _gcd_row(m, x)) * n  # lcm(m, n)
            rows.append(exact_sum(logs[m - 1] * logs / l))
        return fsum(rows)
    if method in ("rearranged", "relaxed"):
        phi = totient_sieve(x)
        terms = []
        for d in range(1, x + 1):
            y = x // d
            r = np.arange(1, y + 1, dtype=np.float64)
            w = np.log(r) if method == "relaxed" else np.log(d * r)
            inner = exact_sum(w / r)
            terms.append(int(phi[d]) / (d * d) * inner * inner)
        return fsum(terms)
    raise ValueError(f"unknown method {method!r}")


def mobius_phi_lcm_sum(x: int, method: str = "brute") -> float:
    """B(x) = sum_{m,n<=x} mu(m)mu(n) log m log n / phi([m,n]).

    method "diagonalized" is the exact two-level regrouping documented in
    the module docstring and matches "brute" to rounding error; "relaxed"
    is the single-square shortcut, kept for diagnostics only.
    """
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    mu = mobius_sieve(x)
    if method == "brute":
        if x > BRUTE_CAP:
            raise ValueError(f"brute method capped at x={BRUTE_CAP}")
        phi = totient_sieve(x * x)
        n = np.arange(1, x + 1, dtype=np.int64)
        logs = np.log(n.astype(np.float64))
        mu_n = mu[1:].astype(np.float64)
        rows = []
        for m in range(2, x + 1):
            if mu[m] == 0:
                continue
            l = (m // _gcd_row(m, x)) * n  # lcm(m, n)
            rows.append(exact_sum(int(mu[m]) * logs[m - 1] * mu_n * logs / phi[l]))
        return fsum(rows)
    if method in ("diagonalized", "relaxed"):
        phi = totient_sieve(x)
        outer = []
        for d in range(1, x + 1):
            if mu[d] == 0:
                continue
            y = x // d
            r = np.arange(y + 1, dtype=np.int64)
            keep = (mu[:y + 1] != 0) & (np.gcd(r, d) == 1)
            keep[0] = False
            F = np.zeros(y + 1)
            F[keep] = (mu[:y + 1][keep].astype(np.float64)
                       * np.log(d * r[keep].astype(np.float64))
                       / phi[:y + 1][keep])
            if method == "relaxed":
                g1 = exact_sum(F)
                outer.append(g1 * g1 / d)
                continue
            inner = []
            for e in range(1, y + 1):
                if mu[e] == 0:
                    continue
                ge = exact_sum(F[e::e])
                if ge != 0.0:
                    inner.append(int(mu[e]) / e * ge * ge)
            outer.append(fsum(inner) / d)
        return fsum(outer)
    raise ValueError(f"unknown method {method!r}")


# -- single sums ------------------------------------------------------------

def _check(xs: Sequence[int]) -> None:
    """Refuse a checkpoint below 1 or above MOBIUS_X_CAP, before any table."""
    if min(xs, default=1) < 1:
        raise ValueError(f"x must be >= 1, got {min(xs)}")
    if max(xs, default=0) > MOBIUS_X_CAP:
        raise ValueError(f"x {max(xs)} is above the mu table's cap {MOBIUS_X_CAP}")


def _squarefree_sums(m: int, xs: Sequence[int],
                     terms: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     with_log: bool) -> list[float]:
    """Per ascending x, the sum of the terms of the squarefree n <= x prime to m.

    terms(n, mu) gives the terms from mu(n) (int8), times log n with_log;
    one mu table and one PrefixSums cut at every x serve every x.
    """
    _check(xs)
    mu = mobius_sieve(max(xs, default=0))
    for p, _ in factorize(m):
        mu[::p] = 0
    n = np.flatnonzero(mu)  # mu(0) is stored as 0
    mu = mu[n]  # the table goes before terms builds any array
    t = terms(n, mu)
    if with_log:  # the logs take the product, so that mu may stay int8
        logs = np.log(n, dtype=np.float64)
        logs *= t
        t = logs
    return sums_upto(n, t, xs)


def squarefree_harmonic_sums(xs: Sequence[int]) -> list[float]:
    """sum_{d<=x} mu^2(d)/d at each x, which grows like (6/pi^2) log x."""
    return _squarefree_sums(1, xs, lambda n, mu: 1.0 / n, False)


def mobius_log_sums(xs: Sequence[int]) -> list[float]:
    """sum_{n<=x} mu(n) log n at each x."""
    return _squarefree_sums(1, xs, lambda n, mu: mu, True)


def twisted_mobius_sums(m: int, xs: Sequence[int], with_log: bool,
                        make_c2: Callable[[], SingularValue]
                        ) -> tuple[float, list[float]]:
    """The target, and sum_{n<=x, gcd(m,n)=1} mu(n)/phi(n) at each checkpoint x.

    with_log weights each term by log n. The log-weighted form converges
    to the singular series of m up to sign, which is the target; the plain
    form converges to 0, its target. The signed finite sums are returned
    as-is so reports can record the sign the data shows. make_c2 returns C2;
    it is called only with_log, after m and every x are checked and before
    the sieves.
    """
    check_offset(m, "m")
    _check(xs)
    target = singular_series(m, make_c2()).value if with_log else 0.0
    return target, _squarefree_sums(
        m, xs, lambda n, mu: mu / totient_sieve(max(xs, default=0))[n], with_log)
