"""Exact gcd/lcm/phi identities and the rearranged double sums they support.

The three identity residuals are computed in exact integer arithmetic after
cross-multiplication, so their contract is "exactly 0", not an epsilon. The
double sums come in a brute O(x^2) form (the oracle) and a regrouped form
derived from d | gcd(m, n):

    sum_{m,n<=x} log m log n / [m,n]
        = sum_d phi(d)/d^2 * (sum_{r<=x/d} log(dr)/r)^2

    B(x) = sum_{m,n<=x} mu(m)mu(n) log m log n / phi([m,n])
         = sum_d mu^2(d)/d * sum_e mu(e)/e *
               (sum_{r<=x/d, e|r, (d,r)=1} mu(r) log(dr) / phi(r))^2

The second regrouping needs the inner e-level because phi(rs) equals
phi(r)phi(s) * g/phi(g) with g = gcd(r,s); collapsing it to a single square
(i.e. pretending phi(rs) = phi(r)phi(s)) is not an identity, and that
single-square shortcut is kept available only as method "relaxed" for
diagnostics. All real-valued sums use error-free-transformation summation
(math.fsum) in a fixed deterministic order.

FORMULAS maps each formula the `sums` command reports to its methods, the
default first; it is the one place that says which method a formula takes.
"""

from __future__ import annotations

import math
from math import fsum, gcd
from typing import NamedTuple

import numpy as np

from .arith import divisors, mobius_log_sum, mobius_sieve, totient, totient_sieve

BRUTE_CAP = 2000  # 4e6 terms; the rearranged forms carry the load beyond


# -- exact identities -------------------------------------------------------

def gcd_via_phi(m: int, n: int) -> int:
    """gcd(m, n) recovered as sum_{d | gcd} phi(d), by divisor enumeration."""
    if m < 1 or n < 1:
        raise ValueError("arguments must be >= 1")
    return sum(totient(d) for d in divisors(gcd(m, n)))


def lcm_reciprocal_identity_residual(m: int, n: int) -> int:
    """m*n - [m,n] * sum_{d|gcd} phi(d), exact; zero iff the identity holds."""
    if m < 1 or n < 1:
        raise ValueError("arguments must be >= 1")
    return m * n - math.lcm(m, n) * gcd_via_phi(m, n)


def phi_lcm_reciprocal_identity_residual(m: int, n: int) -> int:
    """phi(mn) - phi([m,n]) * sum_{d|gcd} phi(d), exact."""
    if m < 1 or n < 1:
        raise ValueError("arguments must be >= 1")
    return totient(m * n) - totient(math.lcm(m, n)) * gcd_via_phi(m, n)


# -- double sums ------------------------------------------------------------

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
            g = np.gcd(m, n)
            l = (m // g) * n
            rows.append(fsum((logs[m - 1] * logs / l).tolist()))
        return fsum(rows)
    if method in ("rearranged", "relaxed"):
        phi = totient_sieve(x)
        terms = []
        for d in range(1, x + 1):
            y = x // d
            r = np.arange(1, y + 1, dtype=np.float64)
            w = np.log(r) if method == "relaxed" else np.log(d * r)
            inner = fsum((w / r).tolist())
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
            g = np.gcd(m, n)
            l = (m // g) * n
            terms = int(mu[m]) * logs[m - 1] * mu_n * logs / phi[l]
            rows.append(fsum(terms.tolist()))
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
                g1 = fsum(F.tolist())
                outer.append(g1 * g1 / d)
                continue
            inner = []
            for e in range(1, y + 1):
                if mu[e] == 0:
                    continue
                ge = fsum(F[e::e].tolist())
                if ge != 0.0:
                    inner.append(int(mu[e]) / e * ge * ge)
            outer.append(fsum(inner) / d)
        return fsum(outer)
    raise ValueError(f"unknown method {method!r}")


# -- single sums ------------------------------------------------------------

class SquarefreeHarmonic(NamedTuple):
    value: float
    residual: float  # value - (6/pi^2) log x


def squarefree_harmonic_sum(x: int) -> SquarefreeHarmonic:
    """sum_{d<=x} mu^2(d)/d, with its residual against (6/pi^2) log x."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    mu = mobius_sieve(x)
    d = np.arange(1, x + 1, dtype=np.float64)
    value = fsum((1.0 / d[mu[1:] != 0]).tolist())
    return SquarefreeHarmonic(value, value - 6.0 / math.pi ** 2 * math.log(x))


def twisted_mobius_sum(m: int, x: int, with_log: bool) -> float:
    """sum_{n<=x, gcd(m,n)=1} mu(n)/phi(n), optionally weighted by log n.

    The log-weighted form converges to the singular series of |2m| up to
    sign; the plain form converges to 0. The signed finite sum is returned
    as-is so reports can record the sign the data shows.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    mu = mobius_sieve(x)
    phi = totient_sieve(x)
    n = np.arange(x + 1, dtype=np.int64)
    keep = (mu != 0) & (np.gcd(n, m) == 1)
    keep[0] = False
    vals = mu[keep].astype(np.float64) / phi[keep]
    if with_log:
        vals = vals * np.log(n[keep].astype(np.float64))
    return fsum(vals.tolist())


# -- the formulas of the `sums` report ---------------------------------------

# formula id -> {method: x -> value}, the default method first. The lambdas
# look each sum up by name at call time, so a wrapper that perfbench's tracer
# installs on the module function is the one that runs.
FORMULAS = {
    "log-lcm": {
        "rearranged": lambda x: log_lcm_double_sum(x, "rearranged"),
        "brute": lambda x: log_lcm_double_sum(x, "brute"),
        "relaxed": lambda x: log_lcm_double_sum(x, "relaxed"),
    },
    "mobius-phi-lcm": {
        "diagonalized": lambda x: mobius_phi_lcm_sum(x, "diagonalized"),
        "brute": lambda x: mobius_phi_lcm_sum(x, "brute"),
        "relaxed": lambda x: mobius_phi_lcm_sum(x, "relaxed"),
    },
    "squarefree-harmonic": {"direct": lambda x: squarefree_harmonic_sum(x).value},
    "mobius-log": {"direct": lambda x: mobius_log_sum(x).value},
}
