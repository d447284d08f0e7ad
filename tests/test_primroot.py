import random

import pytest

import oracles
from germain_lab.primroot import (CLAIMED_PAIR_TABLE, FERMAT_PRIMES,
                                  GermainModulus, fermat_nonresidue_check,
                                  germain_moduli_upto, germain_short_test,
                                  jacobi, primitive_root_test,
                                  reproduce_pair_table, theorem_4p1_check,
                                  two_qr_rule_check)
from germain_lab.sieve import primes_upto


def test_jacobi_examples():
    assert jacobi(2, 7) == 1     # 7 = -1 mod 8
    assert jacobi(2, 13) == -1   # 13 = 5 mod 8
    assert jacobi(0, 9) == 0
    with pytest.raises(ValueError):
        jacobi(3, 8)


def test_jacobi_equals_euler_criterion_small_primes_exhaustive():
    for p in primes_upto(250).tolist():
        if p == 2:
            continue
        for a in range(p):
            e = pow(a, (p - 1) // 2, p)
            expected = 1 if e == 1 else -1 if e == p - 1 else 0
            assert jacobi(a, p) == expected


def test_jacobi_equals_euler_criterion_sampled():
    rng = random.Random(31337)
    odd_primes = [p for p in primes_upto(10 ** 4).tolist() if p > 2]
    for _ in range(500):
        p = rng.choice(odd_primes)
        a = rng.randrange(0, p)
        e = pow(a, (p - 1) // 2, p)
        expected = 1 if e == 1 else -1 if e == p - 1 else 0
        assert jacobi(a, p) == expected


def test_quadratic_reciprocity_sampled():
    rng = random.Random(777)
    odd_primes = [p for p in primes_upto(10 ** 4).tolist() if p > 2]
    for _ in range(1000):
        p, q = rng.sample(odd_primes, 2)
        sign = -1 if (p % 4 == 3 and q % 4 == 3) else 1
        assert jacobi(p, q) * jacobi(q, p) == sign


def test_two_qr_rule_examples_and_sweep():
    assert two_qr_rule_check(7)
    assert two_qr_rule_check(3)
    for p in primes_upto(10 ** 4).tolist():
        if p > 2:
            assert two_qr_rule_check(p)
            assert (jacobi(2, p) == 1) == (p % 8 in (1, 7))


def test_primitive_root_certificate_examples():
    cert = primitive_root_test(2, 13)
    assert cert.verdict
    assert dict(cert.witnesses) == {2: 12, 3: 3}
    assert not primitive_root_test(1, 13).verdict
    assert primitive_root_test(3, 7).verdict
    with pytest.raises(ValueError):
        primitive_root_test(13, 13)
    with pytest.raises(ValueError):
        primitive_root_test(2, 9)


def test_primitive_root_verdict_equals_full_order_exhaustive():
    for q in primes_upto(500).tolist():
        if q == 2:
            continue
        for u in range(1, q):
            assert primitive_root_test(u, q).verdict == (
                oracles.mult_order_brute(u, q) == q - 1)


def test_primitive_root_verdict_equals_full_order_sampled():
    rng = random.Random(2718)
    qs = [q for q in primes_upto(10 ** 4).tolist() if q > 500]
    for _ in range(300):
        q = rng.choice(qs)
        u = rng.randrange(2, q)
        assert primitive_root_test(u, q).verdict == (
            oracles.mult_order_brute(u, q) == q - 1)


def test_germain_moduli_enumeration():
    mods = germain_moduli_upto(100)
    assert [g.q for g in mods] == [7, 11, 13, 23, 29, 41, 47, 53, 59, 83, 89, 97]
    assert [(g.s, g.r) for g in mods[:3]] == [(1, 3), (1, 5), (2, 3)]
    for g in mods:
        assert g.q == 2 ** g.s * g.r + 1


def test_germain_short_test_examples():
    g = GermainModulus(q=13, s=2, r=3)
    assert germain_short_test(g, 2)
    assert not germain_short_test(g, 1)
    with pytest.raises(ValueError):
        germain_short_test(g, 13)
    # 15 = 2*7 + 1 is composite; 17 - 1, 3 - 1 and 2 - 1 have no odd prime r
    for bad in ((15, 1, 7), (17, 4, 1), (3, 1, 1), (2, 0, 1)):
        with pytest.raises(ValueError, match="malformed modulus decomposition"):
            GermainModulus(*bad)


def test_germain_short_test_agrees_with_full_test():
    rng = random.Random(1234)
    for g in germain_moduli_upto(2 * 10 ** 4):
        for _ in range(10):
            u = rng.randrange(2, g.q)
            assert germain_short_test(g, u) == primitive_root_test(u, g.q).verdict


def test_theorem_4p1_examples():
    assert theorem_4p1_check(7)   # q = 29
    assert theorem_4p1_check(3)   # q = 13, below the generic q > 16 regime
    with pytest.raises(ValueError):
        theorem_4p1_check(5)      # 21 composite
    with pytest.raises(ValueError):
        theorem_4p1_check(4)


def test_theorem_4p1_sweep_small():
    flags = oracles.sieve_flags(4 * 10 ** 4 + 1)
    ps = [p for p in primes_upto(10 ** 4).tolist() if flags[4 * p + 1]]
    assert ps, "sweep range contains eligible pairs"
    assert all(theorem_4p1_check(p) for p in ps)


def test_pair_table_errata_detection():
    rows = reproduce_pair_table()
    assert len(rows) == len(CLAIMED_PAIR_TABLE) == 28
    bad = {r.p: r for r in rows if not r.match}
    assert set(bad) == {673, 739}
    assert (bad[673].claimed_q, bad[673].computed_q) == (2697, 2693)
    assert (bad[739].claimed_q, bad[739].computed_q) == (2959, 2957)
    assert not bad[673].claimed_is_prime and not bad[739].claimed_is_prime
    for r in rows:
        if r.match:
            assert r.claimed_is_prime


def test_pair_table_limit_filter():
    rows = reproduce_pair_table(100)
    assert [r.p for r in rows] == [3, 7, 13, 37, 43, 67, 73, 79, 97]


def test_fermat_nonresidue_examples():
    assert fermat_nonresidue_check(17, 3)
    assert fermat_nonresidue_check(17, 2)
    with pytest.raises(ValueError):
        fermat_nonresidue_check(7, 3)
    with pytest.raises(ValueError):
        fermat_nonresidue_check(17, 34)


def test_fermat_nonresidue_biconditional():
    for f in (3, 5, 17, 257):
        assert all(fermat_nonresidue_check(f, u) for u in range(2, f))
    rng = random.Random(65537)
    big = FERMAT_PRIMES[-1]
    assert all(fermat_nonresidue_check(big, rng.randrange(2, big))
               for _ in range(1000))
