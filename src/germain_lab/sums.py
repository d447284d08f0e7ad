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
the sums over rows, of Python floats, by math.fsum. An identity row's and a
brute row's gcd(m, n) come from the divisors of m, written at their
multiples in ascending order, not from np.gcd over every n. The brute B(x)
reads phi only up to x: its rows are the squarefree m, and [m, n] is n
times the primes of m that do not divide n, so phi([m, n]) is phi(n) times
their p - 1, by multiplicativity alone. A double sum's terms change with x,
so it is taken anew at each checkpoint.

The single sums, squarefree_harmonic_sums, mobius_log_sums and the twisted
sums, are prefix sums over the squarefree n: one mu table to the last
checkpoint (int8, 1 byte per integer), and for the twisted sums one phi
table (int32, 4 bytes; arith refuses a limit of 2^31 or more). The mu
table is read one block of _BLOCK integers at a time, and each block's
terms go to one summation.PrefixSums cut at every checkpoint, so beside
the tables only one block's arrays are alive, whatever x is. The tables
are exact integers, and PrefixSums rounds correctly however its terms are
split, so the blocks do not change a bit of any sum.

Every sum refuses its input before it builds a table: a single sum's
checkpoint above MOBIUS_X_CAP, set by the tables' memory, then checkpoints
below 1 or not strictly ascending (summation.checkpoint_keys), and a
double sum's x above its method's cap in LOG_LCM_CAPS or
MOBIUS_PHI_LCM_CAPS, set by time. The `sums` command reads this module by
the FORMULAS table that cli keeps beside the command, so importing the CLI
loads none of it.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from math import fsum

import numpy as np

from .arith import divisors, factorize, mobius_sieve, totient_sieve
from .constants import SingularValue, check_offset, singular_series
from .summation import PrefixSums, checkpoint_keys, exact_sum

# Largest x of the brute double sums: 4e6 terms, the rearranged forms carry
# the load beyond. On a 2-core Xeon at the cap, log-lcm brute took 0.26-0.29
# s and mobius-phi-lcm brute 0.30-0.34 s, each at 30 MB peak RSS.
BRUTE_CAP = 2000
# Largest x of the regrouped double sums, set by time: each makes about x
# numpy calls. On a 2-core Xeon, log-lcm took 0.55 s at 1e5 and 4.2-5.3 s
# at the cap (relaxed: 4.0-4.4 s), and mobius-phi-lcm diagonalized 1.9 s at
# 1e5 and 5.2-5.9 s at the cap (relaxed: 2.4 s).
REARRANGED_CAP = 1_000_000
DIAGONALIZED_CAP = 300_000
# Largest x of each method of the two double sums
LOG_LCM_CAPS = {"brute": BRUTE_CAP, "rearranged": REARRANGED_CAP,
                "relaxed": REARRANGED_CAP}
MOBIUS_PHI_LCM_CAPS = {"brute": BRUTE_CAP, "diagonalized": DIAGONALIZED_CAP,
                       "relaxed": DIAGONALIZED_CAP}
# Largest checkpoint of the single sums, whose mu table (1 byte per
# integer) and the twisted sums' phi table (4 bytes) are as long as it. On
# a 2-core Xeon at the cap, sums --formula mobius-log took 3.9 s and 159 MB
# peak RSS, and twisted-sums --m 1 --no-log 11.1 s and 541 MB, most of it
# in the two sieves.
MOBIUS_X_CAP = 100_000_000
# Integers of the mu table that the single sums read at a time: one block's
# squarefree n, mu(n), terms and logs are the arrays beside the tables
_BLOCK = 1 << 16


# -- exact identities -------------------------------------------------------

IDENTITIES = ("gcd-phi-divisor", "lcm-reciprocal", "phi-lcm-reciprocal")
# Largest max for identity_residual_rows: its phi table up to max^2 takes
# 4 bytes per entry, 36 MB at the cap, where verify-identities peaked at
# 69 MB RSS in 0.63 s on a 2-core Xeon (Python 3.11, numpy 2.4).
IDENTITY_CAP = 3000


def _gcd_row(m: int, x: int) -> np.ndarray:
    """gcd(m, n) for n = 1..x (int64): each divisor d > 1 of m, in ascending
    order, is written at its multiples, so the last write at n is the
    largest divisor of m that divides n."""
    g = np.ones(x, dtype=np.int64)
    for d in sorted(divisors(factorize(m)))[1:]:
        g[d - 1::d] = d
    return g


def identity_residual_rows(top: int):
    """Yield (m, residuals) for m = 1..top, row by row.

    residuals holds one int64 array per identity of IDENTITIES, entry n - 1
    for the pair (m, n), n = 1..top, each zero iff the identity holds there:

        sum_{d|g} phi(d) - g
        m*n - [m,n] * sum_{d|g} phi(d)
        phi(mn) - phi([m,n]) * sum_{d|g} phi(d)        with g = gcd(m, n)

    phi comes from one totient_sieve(top^2), g from _gcd_row, and sum_{d|k}
    phi(d) from striding phi(d) over the multiples k <= top of each d.
    Every value stays below top^3, far inside int64. A top below 1 or above
    IDENTITY_CAP is refused before the table.
    """
    if top < 1:
        raise ValueError(f"top must be >= 1, got {top}")
    if top > IDENTITY_CAP:
        raise ValueError(f"top {top} is above the cap {IDENTITY_CAP}: the phi "
                         f"table up to top^2 would hold {top * top + 1} entries")
    phi = totient_sieve(top * top)
    phi_sum = np.zeros(top + 1, dtype=np.int64)
    for d in range(1, top + 1):
        phi_sum[d::d] += phi[d]
    n = np.arange(1, top + 1, dtype=np.int64)
    for m in range(1, top + 1):
        g = _gcd_row(m, top)
        s = phi_sum[g]
        lcm = (m // g) * n
        yield m, (s - g, m * n - lcm * s, phi[m * n] - phi[lcm] * s)


# -- double sums ------------------------------------------------------------

def _phi_lcm_row(m: int, phi: np.ndarray) -> np.ndarray:
    """phi([m, n]) for n = 1..x (int64), for a squarefree m, from phi = totient_sieve(x).

    [m, n] is n times the primes p | m with p not dividing n, a product
    prime to n, so phi([m, n]) is phi(n) times their p - 1. Each prime of m
    multiplies the row by p - 1 and divides it back out at the multiples
    of p, exactly.
    """
    row = phi[1:].astype(np.int64)
    for p, _ in factorize(m):
        row *= p - 1
        row[p - 1::p] //= p - 1
    return row


def _check_double(x: int, method: str, caps: dict[str, int]) -> None:
    """Refuse x below 2, a method not in caps, or x above its cap, before any table."""
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    if method not in caps:
        raise ValueError(f"unknown method {method!r}")
    if x > caps[method]:
        raise ValueError(f"{method} method capped at x={caps[method]}")


def log_lcm_double_sum(x: int, method: str = "brute") -> float:
    """sum_{m,n<=x} log m log n / [m,n].

    method: "brute" (row-major double loop), "rearranged" (the exact
    regrouping over common divisors d), or "relaxed" (same shape but with
    log r in place of log(dr); a diagnostic lower envelope, not an identity).
    x above the method's cap in LOG_LCM_CAPS is refused before any table.
    """
    _check_double(x, method, LOG_LCM_CAPS)
    if method == "brute":
        n = np.arange(1, x + 1, dtype=np.int64)
        logs = np.log(n.astype(np.float64))
        rows = []
        for m in range(2, x + 1):
            l = (m // _gcd_row(m, x)) * n  # lcm(m, n)
            rows.append(exact_sum(logs[m - 1] * logs / l))
        return fsum(rows)
    phi = totient_sieve(x)
    terms = []
    for d in range(1, x + 1):
        y = x // d
        r = np.arange(1, y + 1, dtype=np.float64)
        w = np.log(r) if method == "relaxed" else np.log(d * r)
        inner = exact_sum(w / r)
        terms.append(int(phi[d]) / (d * d) * inner * inner)
    return fsum(terms)


def mobius_phi_lcm_sum(x: int, method: str = "brute") -> float:
    """B(x) = sum_{m,n<=x} mu(m)mu(n) log m log n / phi([m,n]).

    method "diagonalized" is the exact two-level regrouping documented in
    the module docstring and matches "brute" to rounding error; "relaxed"
    is the single-square shortcut, kept for diagnostics only. x above the
    method's cap in MOBIUS_PHI_LCM_CAPS is refused before any table.
    """
    _check_double(x, method, MOBIUS_PHI_LCM_CAPS)
    mu = mobius_sieve(x)
    phi = totient_sieve(x)
    if method == "brute":
        logs = np.log(np.arange(1, x + 1, dtype=np.float64))
        mu_n = mu[1:].astype(np.float64)
        rows = []
        for m in range(2, x + 1):
            if mu[m] == 0:
                continue
            rows.append(exact_sum(int(mu[m]) * logs[m - 1] * mu_n * logs
                                  / _phi_lcm_row(m, phi)))
        return fsum(rows)
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


# -- single sums ------------------------------------------------------------

def _check(xs: Sequence[int]) -> np.ndarray:
    """The keys of xs, refused before any table: a checkpoint above
    MOBIUS_X_CAP, then any list checkpoint_keys refuses."""
    if max(xs, default=0) > MOBIUS_X_CAP:
        raise ValueError(f"x {max(xs)} is above the mu table's cap {MOBIUS_X_CAP}")
    return checkpoint_keys(xs)


def _squarefree_sums(m: int, xs: Sequence[int],
                     terms: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     with_log: bool) -> list[float]:
    """Per ascending x, the sum of the terms of the squarefree n <= x prime to m.

    terms(n, mu) gives the terms of the ascending n of one block from
    mu(n) (int8), times log n with_log. One mu table to the last x is read
    _BLOCK integers at a time, and each block's terms go to one PrefixSums
    cut at every x, so only one block's arrays are alive beside the tables.
    """
    keys = _check(xs)
    last = max(xs, default=0)
    mu = mobius_sieve(last)
    for p, _ in factorize(m):
        mu[::p] = 0
    stream = PrefixSums(len(xs))
    for lo in range(0, last + 1, _BLOCK):
        n = np.flatnonzero(mu[lo:lo + _BLOCK])  # mu(0) is stored as 0
        n += lo
        t = terms(n, mu[n])
        if with_log:  # the logs take the product, so that mu may stay int8
            logs = np.log(n, dtype=np.float64)
            logs *= t
            t = logs
        stream.add([t], np.searchsorted(n, keys, side="right"))
    return stream.sums()


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
    phi = totient_sieve(max(xs, default=0))
    return target, _squarefree_sums(m, xs, lambda n, mu: mu / phi[n], with_log)
