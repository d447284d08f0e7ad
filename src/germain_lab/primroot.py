"""Primitive-root tests, quadratic residue laws, and the (p, 4p+1) pair audit.

A base u generates the multiplicative group mod a prime q exactly when
u^((q-1)/ell) != 1 for every prime ell dividing q - 1. Moduli of the shape
q = 2^s * r + 1 with r an odd prime need only the two exponentiations
(q-1)/2 and (q-1)/r, and Fermat-prime moduli reduce further to a single
quadratic-character evaluation. The module also audits a published table
of claimed (p, 4p+1) pairs against the recomputed values and flags the
rows that disagree.

primitive_root_test factors q - 1 by trial division. theorem_4p1_check
does not: q - 1 = 4p with p proven prime, so the primes of q - 1 are 2
and p. Both prove q prime the same way and build their certificates
with one helper. germain_moduli_upto reads its moduli from the sieve's
primes: r < q, so r is prime exactly when it is one of them.
GermainModulus still proves q and r when it is built.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .arith import factorize
from .sieve import is_prime, primes_upto

FERMAT_PRIMES = (3, 5, 17, 257, 65537)
# Largest limit of the theorem-4p1 and short-test sweeps. At the cap the
# theorem-4p1 sweep took 1.7 s, 47 MB and the short test, at 20 trials,
# 15.4 s, 72 MB (2-core Xeon, Python 3.11, numpy 2.4); SHORT_TEST_BUDGET
# admits it with one trial.
SWEEP_CAP = 10 ** 7
# Largest --trials of the fermat and short-test sweeps, which hold the bases
# of a modulus and their certificates, about 300 bytes a trial. On one
# modulus 10^5 trials took 0.6 s and 47-60 MB, 10^6 trials 5.3-7.1 s and
# 322-336 MB (2-core Xeon, Python 3.11).
TRIALS_CAP = 10 ** 5
# Largest --limit times --trials of the short-test sweep, whose time grows
# with the moduli below the limit times the trials. At the budget
# --limit 100 --trials 1e5 took 9.2 s and 90 MB, --limit 1e3 --trials 1e4
# 4.5 s and --limit 1e7 --trials 1 6.1 s (2-core Xeon, Python 3.11).
SHORT_TEST_BUDGET = 10 ** 7

# Claimed (p, 4p+1) rows as published; reproduce_pair_table recomputes 4p+1
# and checks primality of the claimed entry, flagging disagreements.
CLAIMED_PAIR_TABLE = (
    (3, 13), (7, 29), (13, 53), (37, 149), (43, 173), (67, 269), (73, 293),
    (79, 317), (97, 389), (127, 509), (139, 557), (163, 653), (193, 773),
    (199, 797), (277, 1109), (307, 1229), (373, 1493), (409, 1637),
    (433, 1733), (487, 1949), (499, 1997), (577, 2309), (619, 2477),
    (673, 2697), (709, 2837), (739, 2959), (853, 3413), (883, 3533),
)


class PrimRootCertificate(NamedTuple):
    """Witness exponentiations proving or refuting that base generates mod q.

    witnesses holds (ell, base^((q-1)/ell) mod q) for each distinct prime
    ell | q-1; the verdict is True iff no witness residue equals 1.
    """

    modulus: int
    base: int
    witnesses: tuple[tuple[int, int], ...]
    verdict: bool


class _GermainFields(NamedTuple):
    q: int
    s: int
    r: int


class GermainModulus(_GermainFields):
    """A prime q = 2^s * r + 1 with r an odd prime, checked once when built."""

    __slots__ = ()

    def __new__(cls, q: int, s: int, r: int):
        self = super().__new__(cls, q, s, r)
        if q != (1 << s) * r + 1 or r % 2 == 0 or not is_prime(q) or not is_prime(r):
            raise ValueError(f"malformed modulus decomposition {self}")
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so a replaced field is checked too
        return cls(*iterable)


class PairTableRow(NamedTuple):
    p: int
    claimed_q: int
    computed_q: int
    claimed_is_prime: bool
    match: bool


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


def _prove_modulus(q: int) -> None:
    """Refuse a q that is not an odd prime."""
    if q < 3 or not is_prime(q):
        raise ValueError(f"modulus {q} must be an odd prime")


def _certificates(q: int, ells: list[int], bases) -> list[PrimRootCertificate]:
    """The generator certificate of each base mod the proven prime q, in order.

    ells are the distinct primes of q - 1, ascending.
    """
    bases = list(bases)
    for u in bases:
        if math.gcd(u, q) != 1:
            raise ValueError(f"base {u} shares a factor with modulus {q}")
    # one list of residues per ell, the whole batch at a time
    residues = [[pow(u, (q - 1) // ell, q) for u in bases] for ell in ells]
    return [PrimRootCertificate(q, u % q, tuple(zip(ells, res)), 1 not in res)
            for u, *res in zip(bases, *residues)]


def primitive_root_test(q: int, bases) -> list[PrimRootCertificate]:
    """Full generator test of each base modulo a prime q >= 3, with its witnesses.

    q is proven prime, then q - 1 is factored by trial division once for
    the whole batch; the certificates come back in the order of bases.
    """
    _prove_modulus(q)
    return _certificates(q, [ell for ell, _ in factorize(q - 1)], bases)


def germain_moduli_upto(limit: int) -> list[GermainModulus]:
    """The primes q <= limit with q - 1 = 2^s * r, r an odd prime, ascending."""
    qs = primes_upto(limit)
    n = qs - 1
    two_s = n & -n
    r = n // two_s
    hit = (r >= 3) & (qs.take(qs.searchsorted(r), mode="clip") == r)
    return [GermainModulus(q=q, s=t.bit_length() - 1, r=m) for q, t, m
            in zip(qs[hit].tolist(), two_s[hit].tolist(), r[hit].tolist())]


def germain_short_test(g: GermainModulus, u: int) -> bool:
    """Two-exponentiation generator test for q = 2^s * r + 1.

    u generates iff u^(2^(s-1) r) != 1 and u^(2^s) != 1 (these are the two
    witness exponents (q-1)/2 and (q-1)/r). The second power is computed
    only when the first is not 1: where u^((q-1)/2) = 1, u does not
    generate whatever u^(2^s) is. No precondition on u beyond coprimality
    is enforced. The decomposition itself was checked when g was built.
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
    p and q are each proven prime. q - 1 = 2^2 p is not factored: its
    primes are 2 and p (p = 2 gives q = 9, which is refused).
    """
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    q = 4 * p + 1
    _prove_modulus(q)
    return _certificates(q, [2, p], [2])[0].verdict


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


def fermat_nonresidue_check(fermat_prime: int, bases) -> bool:
    """Does (u/F) = -1 hold exactly when u generates mod the Fermat prime F,
    for every u in bases?"""
    if fermat_prime not in FERMAT_PRIMES:
        raise ValueError(f"{fermat_prime} is not a Fermat prime")
    return all((jacobi(c.base, fermat_prime) == -1) == c.verdict
               for c in primitive_root_test(fermat_prime, bases))
