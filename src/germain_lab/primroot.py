"""Primitive-root tests, quadratic residue laws, and the (p, 4p+1) pair audit.

A base u generates the multiplicative group mod a prime q exactly when
u^((q-1)/ell) != 1 for every prime ell dividing q - 1. Moduli of the shape
q = 2^s * r + 1 with r an odd prime need only the two exponentiations
(q-1)/2 and (q-1)/r, and Fermat-prime moduli reduce further to a single
quadratic-character evaluation. The module also audits a published table
of claimed (p, 4p+1) pairs against the recomputed values and flags the
rows that disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import factorize
from .sieve import is_prime, primes_upto

FERMAT_PRIMES = (3, 5, 17, 257, 65537)

# Claimed (p, 4p+1) rows as published; reproduce_pair_table recomputes 4p+1
# and checks primality of the claimed entry, flagging disagreements.
CLAIMED_PAIR_TABLE = (
    (3, 13), (7, 29), (13, 53), (37, 149), (43, 173), (67, 269), (73, 293),
    (79, 317), (97, 389), (127, 509), (139, 557), (163, 653), (193, 773),
    (199, 797), (277, 1109), (307, 1229), (373, 1493), (409, 1637),
    (433, 1733), (487, 1949), (499, 1997), (577, 2309), (619, 2477),
    (673, 2697), (709, 2837), (739, 2959), (853, 3413), (883, 3533),
)


@dataclass(frozen=True)
class PrimRootCertificate:
    """Witness exponentiations proving or refuting that base generates mod q.

    witnesses holds (ell, base^((q-1)/ell) mod q) for each distinct prime
    ell | q-1; the verdict is True iff no witness residue equals 1.
    """

    modulus: int
    base: int
    witnesses: tuple[tuple[int, int], ...]
    verdict: bool


@dataclass(frozen=True)
class GermainModulus:
    """A prime q = 2^s * r + 1 with r an odd prime, checked once when built."""

    q: int
    s: int
    r: int

    def __post_init__(self):
        q, s, r = self.q, self.s, self.r
        if q != (1 << s) * r + 1 or r % 2 == 0 or not is_prime(q) or not is_prime(r):
            raise ValueError(f"malformed modulus decomposition {self}")


@dataclass(frozen=True)
class PairTableRow:
    p: int
    claimed_q: int
    computed_q: int
    claimed_is_prime: bool
    match: bool


def _distinct_prime_factors(n: int) -> list[int]:
    return [p for p, _ in factorize(n)]


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 3; the Legendre symbol when n is prime."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 3, got {n}")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def two_qr_rule_check(p: int) -> bool:
    """Does (-1)^((p^2-1)/8) match the Euler criterion 2^((p-1)/2) mod p?"""
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    euler = pow(2, (p - 1) // 2, p)
    euler_pm = 1 if euler == 1 else -1 if euler == p - 1 else 0
    formula = -1 if ((p * p - 1) // 8) % 2 else 1
    return euler_pm == formula


def primitive_root_test(u: int, q: int) -> PrimRootCertificate:
    """Full generator test modulo a prime q >= 3, with its witness list."""
    if q < 3 or not is_prime(q):
        raise ValueError(f"modulus {q} must be an odd prime")
    if math.gcd(u, q) != 1:
        raise ValueError(f"base {u} shares a factor with modulus {q}")
    witnesses = tuple(
        (ell, pow(u, (q - 1) // ell, q))
        for ell in _distinct_prime_factors(q - 1)
    )
    return PrimRootCertificate(
        modulus=q, base=u % q, witnesses=witnesses,
        verdict=all(res != 1 for _, res in witnesses),
    )


def germain_moduli_upto(limit: int) -> list[GermainModulus]:
    out = []
    for q in primes_upto(limit).tolist():
        n = q - 1
        s = (n & -n).bit_length() - 1
        r = n >> s
        if s >= 1 and r >= 3 and is_prime(r):
            out.append(GermainModulus(q=q, s=s, r=r))
    return out


def germain_short_test(g: GermainModulus, u: int) -> bool:
    """Two-exponentiation generator test for q = 2^s * r + 1.

    u generates iff u^(2^(s-1) r) != 1 and u^(2^s) != 1 (these are the two
    witness exponents (q-1)/2 and (q-1)/r). Both conditions are always
    evaluated; no precondition on u beyond coprimality is enforced. The
    decomposition itself was checked when g was built.
    """
    q, s, r = g.q, g.s, g.r
    if math.gcd(u, q) != 1:
        raise ValueError(f"base {u} shares a factor with modulus {q}")
    return pow(u, (1 << (s - 1)) * r, q) != 1 and pow(u, 1 << s, q) != 1


def theorem_4p1_check(p: int) -> bool:
    """Is 2 a generator modulo q = 4p + 1 (p, q both prime)?

    Expected True for every such pair: q = 5 (mod 8) makes 2 a quadratic
    nonresidue, and 2^((q-1)/p) = 16 != 1 once q > 16, with q = 13 checked
    directly. Any False would be a counterexample worth its certificate.
    """
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    q = 4 * p + 1
    if not is_prime(q):
        raise ValueError(f"4p+1 = {q} is not prime")
    return primitive_root_test(2, q).verdict


def reproduce_pair_table(limit: int | None = None) -> list[PairTableRow]:
    """Audit the claimed (p, 4p+1) rows with p <= limit (all rows if None)."""
    rows = []
    for p, claimed in CLAIMED_PAIR_TABLE:
        if limit is not None and p > limit:
            continue
        computed = 4 * p + 1
        rows.append(PairTableRow(
            p=p, claimed_q=claimed, computed_q=computed,
            claimed_is_prime=is_prime(claimed), match=claimed == computed,
        ))
    return rows


def fermat_nonresidue_check(fermat_prime: int, u: int) -> bool:
    """Does (u/F) = -1 hold exactly when u generates mod the Fermat prime F?"""
    if fermat_prime not in FERMAT_PRIMES:
        raise ValueError(f"{fermat_prime} is not a Fermat prime")
    if math.gcd(u, fermat_prime) != 1:
        raise ValueError(f"base {u} shares a factor with {fermat_prime}")
    nonresidue = jacobi(u, fermat_prime) == -1
    return nonresidue == primitive_root_test(u, fermat_prime).verdict
