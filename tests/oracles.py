"""Independent naive reference implementations used as test oracles.

Everything here is written the slow, obvious way on purpose and shares no
code path with the library: bytearray sieving, trial division, brute-force
double loops, fixed-grid quadrature, and sums that fsum each checkpoint's
whole prefix.
"""

import math
from math import fsum, gcd

import numpy as np


def sieve_flags(limit):
    """bytearray primality table, flags[n] == 1 iff n prime."""
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p::p] = bytearray(len(range(p * p, limit + 1, p)))
    return flags


def smallest_prime_factors(limit):
    """list where spf[n] is the least prime dividing n, for 2 <= n <= limit."""
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def primes_upto(limit):
    if limit < 2:
        return []
    flags = sieve_flags(limit)
    return [n for n in range(2, limit + 1) if flags[n]]


def is_prime_trial(n):
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def factorize_trial(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def mobius_sieve_per_prime(limit):
    """mu(n) for 0 <= n <= limit (int8), one strided pass per prime p <= limit."""
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    for p in primes_upto(limit):
        mu[p::p] *= -1
        mu[p * p::p * p] = 0
    return mu


def totient_sieve_per_prime(limit):
    """phi(n) for 0 <= n <= limit (int64), one strided pass per prime p <= limit."""
    phi = np.arange(limit + 1, dtype=np.int64)
    for p in primes_upto(limit):
        phi[p::p] = phi[p::p] // p * (p - 1)
    return phi


def mobius_naive(n):
    fac = factorize_trial(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def totient_brute(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def von_mangoldt_naive(n):
    if n < 2:
        return 0.0
    fac = factorize_trial(n)
    return math.log(fac[0][0]) if len(fac) == 1 else 0.0


def von_mangoldt(n):
    """log p when n = p^k (the standard convention), else 0; n >= 1.

    Divides out the least prime factor, a route apart from the full
    factorization of von_mangoldt_naive.
    """
    if n < 1:
        raise ValueError(f"von Mangoldt undefined for n={n}")
    if n == 1:
        return 0.0
    p = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
    while n % p == 0:
        n //= p
    return math.log(p) if n == 1 else 0.0


def divisors_naive(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def totient_trial(n):
    t = n
    for p, _ in factorize_trial(n):
        t -= t // p
    return t


def gcd_via_phi(m, n):
    """gcd(m, n) recovered as sum_{d | gcd} phi(d), by divisor enumeration."""
    return sum(totient_trial(d) for d in divisors_naive(gcd(m, n)))


def lcm_reciprocal_identity_residual(m, n):
    """m*n - [m,n] * sum_{d|gcd} phi(d), exact; zero iff the identity holds."""
    return m * n - math.lcm(m, n) * gcd_via_phi(m, n)


def phi_lcm_reciprocal_identity_residual(m, n):
    """phi(mn) - phi([m,n]) * sum_{d|gcd} phi(d), exact."""
    return (totient_trial(m * n)
            - totient_trial(math.lcm(m, n)) * gcd_via_phi(m, n))


def log_lcm_brute(x):
    return fsum(math.log(m) * math.log(n) / math.lcm(m, n)
                for m in range(1, x + 1) for n in range(1, x + 1))


def mobius_phi_lcm_brute(x):
    """Column-major on purpose (the library iterates row-major)."""
    total = []
    for n in range(1, x + 1):
        mn = mobius_naive(n)
        if mn == 0:
            continue
        col = []
        for m in range(1, x + 1):
            mm = mobius_naive(m)
            if mm == 0:
                continue
            col.append(mm * mn * math.log(m) * math.log(n)
                       / totient_brute(math.lcm(m, n)))
        total.append(fsum(col))
    return fsum(total)


def psi_pair_brute(x, a, b, power):
    return fsum(von_mangoldt_naive(n) * von_mangoldt_naive(a * n + b) ** power
                for n in range(1, x + 1))


def _pairs(x, a, b):
    """The primes p <= x with a*p + b prime, as an int64 array."""
    flags = sieve_flags(max(a * x + b, 2))
    return np.array([p for p in primes_upto(x) if a * p + b >= 2 and flags[a * p + b]],
                    dtype=np.int64)


def pair_sums_prefix(xs, a, b):
    """(pi_g, psi_g, psi0) at each checkpoint x >= 2, each sum an fsum from n = 1.

    The pair terms are the library's doubles, computed over the whole pair
    list at once and summed by one fsum of each checkpoint's prefix; the
    prime-power terms (n = p^k or a*n + b = q^k, k >= 2) are fsum groups of
    their own, and psi is the fsum of the three groups.
    """
    x_max = xs[-1]
    ps = _pairs(x_max, a, b)
    log_p = np.log(ps.astype(np.float64))
    log_m = np.log((a * ps + b).astype(np.float64))
    main = {1: log_m * log_p, 2: np.square(log_m) * log_p}
    # the prime powers n <= x_max and a*n + b <= a*x_max + b: b < 0 can put
    # the first bound above the second
    top = max(x_max, a * x_max + b)
    prime_powers = [(p ** k, math.log(p)) for p in primes_upto(math.isqrt(top))
                    for k in range(2, top.bit_length() + 1) if p ** k <= top]
    flags = sieve_flags(max(a * x_max + b, 2))
    powers = [(n, w, math.log(a * n + b)) for n, w in prime_powers
              if n <= x_max and a * n + b >= 2 and flags[a * n + b]]
    companions = []
    for m, w in prime_powers:
        n, rest = divmod(m - b, a)
        if rest == 0 and 1 <= n <= x_max and von_mangoldt(n) > 0:
            companions.append((n, von_mangoldt(n), w))
    out = []
    for x in xs:
        k = int(np.searchsorted(ps, x, side="right"))
        psi = [fsum([fsum(main[power][:k]),
                     fsum(w * lm ** power for n, w, lm in powers if n <= x),
                     fsum(wn * w ** power for n, wn, w in companions if n <= x)])
               for power in (1, 2)]
        out.append((k, psi[0], psi[1]))
    return out


def reciprocal_sums_prefix(xs, c2):
    """(sum 1/p, sum log p / p, fit residual) over the Germain primes p <= x,
    each sum one fsum of the checkpoint's prefix; c2 is the twin-prime constant."""
    ps = _pairs(xs[-1], 2, 1)
    inverse = 1.0 / ps
    log_over_p = np.array([math.log(p) for p in ps.tolist()]) / ps
    a0 = 2.0 * c2
    out = []
    for x in xs:
        k = int(np.searchsorted(ps, x, side="right"))
        value = fsum(log_over_p[:k])
        fit = a0 * math.log(math.log(x)) + a0 / math.log(x)
        out.append((fsum(inverse[:k]), value, value - fit))
    return out


def psi0_partition_brute(x, x1):
    """(main, error) of psi0(x) = sum_n Lambda(n) Lambda(2n+1)^2, expanded.

    Each Lambda(2n+1) is -sum_{d|2n+1} mu(d) log d; the term of (n, d1, d2)
    goes to main when d1, d2 <= x1 and to error otherwise. Summed over n,
    not over (d1, d2) as the library does.
    """
    main, error = [], []
    for n in range(1, x + 1):
        ds = [(d, mobius_naive(d) * math.log(d)) for d in divisors_naive(2 * n + 1)]
        for d1, w1 in ds:
            for d2, w2 in ds:
                term = von_mangoldt_naive(n) * w1 * w2
                (main if d1 <= x1 and d2 <= x1 else error).append(term)
    return fsum(main), fsum(error)


def twin_prime_window_partials(cutoff, step):
    """Per interval of the n-grid, the fsum over list floats of
    log1p(-1/(p-1)^2), 3 <= p <= cutoff.

    Interval k holds the p with 3 + step*k <= p < 3 + step*(k+1), for each k
    with 3 + step*k <= cutoff, the library's grid; an interval without a
    prime gives 0.0.
    """
    intervals = [[] for _ in range((cutoff - 3) // step + 1)]
    for p in primes_upto(cutoff)[1:]:
        intervals[(p - 3) // step].append(p)
    partials = []
    for ps in intervals:
        pm1 = np.array(ps, dtype=np.float64) - 1.0
        partials.append(fsum(np.log1p(-1.0 / (pm1 * pm1)).tolist()))
    return partials


def twin_prime_product_decimal(cutoff, digits=40):
    """prod_{3 <= p <= cutoff} (1 - 1/(p-1)^2) as a Decimal of digits digits.

    Each factor p(p-2)/(p-1)^2 is divided and multiplied in decimal at that
    precision: at 40 digits even 10^7 factors leave a relative error below
    10^-32, far below a double's ulp, so a double can be judged against it
    to the ulp.
    """
    from decimal import Context, Decimal
    context = Context(prec=digits)
    product = Decimal(1)
    for p in primes_upto(cutoff)[1:]:
        product = context.multiply(product, context.divide(p * (p - 2), (p - 1) ** 2))
    return product


def simpson_fixed(f, a, b, nodes):
    """Composite Simpson on an even number of panels."""
    n = nodes if nodes % 2 == 0 else nodes + 1
    h = (b - a) / n
    vals = [f(a + i * h) for i in range(n + 1)]
    return h / 3.0 * (vals[0] + vals[-1]
                      + 4.0 * fsum(vals[1:-1:2]) + 2.0 * fsum(vals[2:-1:2]))


def mult_order_brute(u, q):
    k = 1
    v = u % q
    while v != 1:
        v = v * u % q
        k += 1
    return k
