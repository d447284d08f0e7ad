"""Numerical verification suite for Germain prime pairs.

Library layout:
  sieve        one strike kernel over a progression c + W*i: primes
               (W = 2), prime powers, prime pairs (p, a*p+b) on the wheel
               W = 30, streamed window by window; deterministic 64-bit
               primality
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
"""

from .constants import SingularValue, singular_series, twin_prime_constant
from .counting import (CountReport, census, hl_prediction, pair_sums,
                       psi0_partition, reciprocal_sums)
from .sieve import is_prime, pair_primes, primes_upto

__all__ = [
    "CountReport", "SingularValue", "census", "hl_prediction", "is_prime",
    "pair_primes", "pair_sums", "primes_upto", "psi0_partition",
    "reciprocal_sums", "singular_series", "twin_prime_constant",
]
