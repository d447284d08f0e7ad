import random

import pytest

import oracles
from germain_lab import primroot
from germain_lab.primroot import (CLAIMED_PAIR_TABLE, FERMAT_PRIMES,
                                  GermainModulus, fermat_nonresidue_check,
                                  germain_moduli_upto, germain_short_test,
                                  jacobi, primitive_root_test,
                                  reproduce_pair_table, theorem_4p1_check)
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


def _two_qr_rule_holds(p):
    """(2/p) = (-1)^((p^2-1)/8), by Euler's criterion and by the library's symbol."""
    sign = -1 if ((p * p - 1) // 8) % 2 else 1
    return pow(2, (p - 1) // 2, p) == sign % p and jacobi(2, p) == sign


def test_two_qr_rule_examples_and_sweep():
    assert _two_qr_rule_holds(7)
    assert _two_qr_rule_holds(3)
    for p in primes_upto(10 ** 4).tolist():
        if p > 2:
            assert _two_qr_rule_holds(p)
            assert (jacobi(2, p) == 1) == (p % 8 in (1, 7))


def test_primitive_root_certificate_examples():
    cert, one, fifteen = primitive_root_test(13, [2, 1, 15])
    assert cert.verdict
    assert dict(cert.witnesses) == {2: 12, 3: 3}
    assert not one.verdict
    assert (fifteen.base, fifteen.verdict) == (2, True)
    assert primitive_root_test(7, [3])[0].verdict
    assert primitive_root_test(7, []) == []
    with pytest.raises(ValueError):
        primitive_root_test(13, [2, 13])
    # the first base that shares a factor is named
    with pytest.raises(ValueError, match="base 26 shares a factor with modulus 13"):
        primitive_root_test(13, [2, 5, 26, 39])
    with pytest.raises(ValueError):
        primitive_root_test(9, [2])


def test_certificates_are_each_bases_witnesses_in_order():
    # each certificate is the one its base alone would get, whether the
    # bases come as a list or as an iterator, and above q or not
    rng = random.Random(99)
    for q in (3, 13, 1009, 65537, 2 ** 31 - 1):
        ells = [ell for ell, _ in oracles.factorize_trial(q - 1)]
        bases = [rng.randrange(1, 3 * q) for _ in range(40)]
        bases = [u for u in bases if u % q]
        expected = []
        for u in bases:
            witnesses = tuple((ell, pow(u, (q - 1) // ell, q)) for ell in ells)
            expected.append((q, u % q, witnesses, all(r != 1 for _, r in witnesses)))
        assert [tuple(c) for c in primitive_root_test(q, bases)] == expected
        assert primitive_root_test(q, iter(bases)) == primitive_root_test(q, bases)


def test_primitive_root_verdict_equals_full_order_exhaustive():
    for q in primes_upto(500).tolist():
        if q == 2:
            continue
        certs = primitive_root_test(q, range(1, q))
        assert [c.base for c in certs] == list(range(1, q))
        assert [c.verdict for c in certs] == [
            oracles.mult_order_brute(u, q) == q - 1 for u in range(1, q)]


def test_primitive_root_verdict_equals_full_order_sampled():
    rng = random.Random(2718)
    qs = [q for q in primes_upto(10 ** 4).tolist() if q > 500]
    for _ in range(300):
        q = rng.choice(qs)
        u = rng.randrange(2, q)
        assert primitive_root_test(q, [u])[0].verdict == (
            oracles.mult_order_brute(u, q) == q - 1)


def test_germain_moduli_enumeration():
    mods = germain_moduli_upto(100)
    assert [g.q for g in mods] == [7, 11, 13, 23, 29, 41, 47, 53, 59, 83, 89, 97]
    assert [(g.s, g.r) for g in mods[:3]] == [(1, 3), (1, 5), (2, 3)]
    for g in mods:
        assert g.q == 2 ** g.s * g.r + 1


def _germain_moduli_by_trial_division(limit):
    # (q, s, r) for each prime q <= limit with q - 1 = 2^s r, r an odd prime >= 3
    out = []
    for q in oracles.primes_upto(limit):
        r, s = q - 1, 0
        while r % 2 == 0:
            r //= 2
            s += 1
        if r >= 3 and oracles.is_prime_trial(r):
            out.append((q, s, r))
    return out


def test_germain_moduli_against_trial_division():
    want = _germain_moduli_by_trial_division(3000)
    for limit in range(3001):
        assert germain_moduli_upto(limit) == [m for m in want if m[0] <= limit], limit
    want = _germain_moduli_by_trial_division(10 ** 5)
    assert len(want) == 1465
    assert germain_moduli_upto(10 ** 5) == want


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
    # a replaced field is checked as a built one is
    with pytest.raises(ValueError, match=r"decomposition GermainModulus\(q=15, s=1, r=7\)"):
        g._replace(q=15, s=1, r=7)
    assert g._replace(q=7, s=1, r=3) == GermainModulus(7, 1, 3)


def test_germain_short_test_agrees_with_full_test():
    rng = random.Random(1234)
    for g in germain_moduli_upto(2 * 10 ** 4):
        bases = [rng.randrange(2, g.q) for _ in range(10)]
        certs = primitive_root_test(g.q, bases)
        assert [germain_short_test(g, u) for u in bases] == [c.verdict for c in certs]


def test_theorem_4p1_examples():
    assert theorem_4p1_check(7)   # q = 29
    assert theorem_4p1_check(3)   # q = 13, below the generic q > 16 regime
    with pytest.raises(ValueError, match=r"^modulus 21 must be an odd prime$"):
        theorem_4p1_check(5)      # 21 composite
    with pytest.raises(ValueError, match=r"^p=4 is not prime$"):
        theorem_4p1_check(4)
    with pytest.raises(ValueError, match=r"^modulus 9 must be an odd prime$"):
        theorem_4p1_check(2)      # 4p = 2^3 has the one prime 2


def test_theorem_4p1_agrees_with_the_factoring_test(monkeypatch):
    # q - 1 = 4p taken from the pair, against q - 1 factored by trial division:
    # the same verdicts, from the same witnesses
    flags = oracles.sieve_flags(4 * 10 ** 5 + 1)
    ps = [p for p in primes_upto(10 ** 5).tolist() if flags[4 * p + 1]]
    assert len(ps) == 1057
    want = [primitive_root_test(4 * p + 1, [2])[0] for p in ps]
    got = []
    certify = primroot._certificates

    def recorded(q, ells, bases):
        got.extend(certify(q, ells, bases))
        return got[-len(bases):]

    monkeypatch.setattr(primroot, "_certificates", recorded)
    assert [theorem_4p1_check(p) for p in ps] == [c.verdict for c in want]
    assert got == want


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
    assert fermat_nonresidue_check(17, [3])
    assert fermat_nonresidue_check(17, [2, 3])
    with pytest.raises(ValueError):
        fermat_nonresidue_check(7, [3])
    with pytest.raises(ValueError):
        fermat_nonresidue_check(17, [3, 34])


def test_fermat_nonresidue_biconditional():
    for f in (3, 5, 17, 257):
        assert fermat_nonresidue_check(f, range(2, f))
    rng = random.Random(65537)
    big = FERMAT_PRIMES[-1]
    assert fermat_nonresidue_check(big, [rng.randrange(2, big) for _ in range(1000)])
