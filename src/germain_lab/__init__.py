"""Numerical verification suite for Germain prime pairs.

Library layout:
  sieve        one sieve of linear forms a*n + b on the classes mod 30:
               primes ([(1, 0)]), prime powers, prime pairs (p, a*p+b)
               ([(1, 0), (a, b)]), streamed one class at a time, each
               window by window; deterministic 64-bit primality
  arith        mobius / totient and their summatory forms
  summation    exact, correctly rounded sums of float64 arrays
  constants    twin-prime constant and the pair singular series
  sums         exact gcd/lcm/phi identities and rearranged double sums
  counting     pair counts and weighted sums from one pass of the pair
               sieve, reduced exactly window by window; the psi0
               partition, predictions
  progressions integers and prime weights in arithmetic progressions
  primroot     primitive-root tests, quadratic residue laws, pair-table audit
  cli          report-generating command-line interface

Each name of __all__ is imported from its module when it is first read
(PEP 562), so importing the package, or cli, loads no numpy.
"""

import importlib

# public name -> the module that defines it
_HOMES = {
    "CountReport": "counting", "SingularValue": "constants",
    "census": "counting", "hl_prediction": "counting", "is_prime": "sieve",
    "pair_primes": "sieve", "pair_sums": "counting", "primes_upto": "sieve",
    "psi0_partition": "counting", "reciprocal_sums": "counting",
    "singular_series": "constants", "twin_prime_constant": "constants",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        # an AttributeError lets `from germain_lab import sieve` import the
        # submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
