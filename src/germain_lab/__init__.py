"""Numerical verification suite for Germain prime pairs.

Library layout:
  sieve        one odd-window sieve kernel: primes, prime powers, prime
               pairs (p, a*p+b); deterministic 64-bit primality
  arith        mobius / von Mangoldt / totient and their summatory forms
  constants    twin-prime constant and the pair singular series
  sums         exact gcd/lcm/phi identities and rearranged double sums
  counting     pair censuses, weighted counting functions, predictions
  progressions integers and prime weights in arithmetic progressions
  primroot     primitive-root tests, quadratic residue laws, pair-table audit
  cli          report-generating command-line interface
"""

from .constants import SingularValue, singular_series, twin_prime_constant
from .counting import (CountReport, GermainPair, census, germain_pairs,
                       germain_reciprocal_sum, hl_prediction, psi0,
                       psi0_partition, psi_g)
from .sieve import is_prime, primes_upto

__all__ = [
    "CountReport", "GermainPair", "SingularValue", "census", "germain_pairs",
    "germain_reciprocal_sum", "hl_prediction", "is_prime", "primes_upto",
    "psi0", "psi0_partition", "psi_g", "singular_series", "twin_prime_constant",
]
