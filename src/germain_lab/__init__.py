"""Numerical verification suite for Germain prime pairs.

Library layout:
  sieve        prime tables, segmented prime and pair sieves, primality
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
from .sieve import PrimeSegment, is_prime, primes_in

__all__ = [
    "CountReport", "GermainPair", "PrimeSegment", "SingularValue", "census",
    "germain_pairs", "germain_reciprocal_sum", "hl_prediction", "is_prime",
    "primes_in", "psi0", "psi0_partition", "psi_g", "singular_series",
    "twin_prime_constant",
]
