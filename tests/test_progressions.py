import math
import tracemalloc
from math import fsum, log

import numpy as np
import pytest

import oracles
from germain_lab import progressions
from germain_lab.progressions import (chebyshev_ap, count_ap, large_sieve_check,
                                      ones_sequence, prime_indicator_sequence,
                                      random_sign_sequence)


def test_count_ap_examples():
    assert count_ap(10, 3, 1).count == 4  # 1, 4, 7, 10
    assert count_ap(10, 1, 0).count == 10
    assert count_ap(5, 7, 6).count == 0


def test_count_ap_closed_form_matches_loop():
    for x in (1, 2, 3, 17, 100, 999, 2000):
        for q in range(1, 51):
            tallies = np.bincount(np.arange(1, x + 1) % q, minlength=q)
            for a in range(q):
                assert count_ap(x, q, a).count == tallies[a]


def test_count_ap_residual_bounded_and_classes_partition():
    for q in range(1, 51):
        for x in (1, 7, 360, 1999):
            counts = [count_ap(x, q, a) for a in range(q)]
            assert sum(c.count for c in counts) == x
            assert all(abs(c.residual) < 1 for c in counts)


def test_count_ap_guards():
    with pytest.raises(ValueError):
        count_ap(10, 3, 3)
    with pytest.raises(ValueError):
        count_ap(0, 3, 1)
    with pytest.raises(ValueError):
        count_ap(10, 0, 0)


def test_chebyshev_examples():
    even, odd = chebyshev_ap([10], 2)
    assert odd.value == pytest.approx(2 * log(3) + log(5) + log(7), rel=1e-14)
    assert even.value == pytest.approx(3 * log(2), rel=1e-14)
    assert even.expected is None  # gcd(0, 2) != 1


def test_chebyshev_matches_naive_sum():
    for q, a in ((3, 1), (4, 3), (5, 0), (7, 2)):
        naive = fsum(oracles.von_mangoldt_naive(n)
                     for n in range(1, 2001) if n % q == a)
        assert chebyshev_ap([2000], q)[a].value == pytest.approx(naive, abs=1e-10)


def test_chebyshev_classes_recombine_to_full_sum():
    x = 10 ** 4
    psi = fsum(oracles.von_mangoldt_naive(n) for n in range(1, x + 1))
    for q in (3, 4, 6):
        coprime = fsum(r.value for r in chebyshev_ap([x], q)
                       if math.gcd(r.a, q) == 1)
        shared = fsum(oracles.von_mangoldt_naive(n)
                      for n in range(1, x + 1)
                      if math.gcd(n, q) > 1 and oracles.von_mangoldt_naive(n) > 0)
        assert coprime == pytest.approx(psi - shared, rel=1e-12)


def test_chebyshev_reads_every_class_from_one_sieve(monkeypatch):
    # ten checkpoints, one pass of the prime windows and no table of every
    # prime: at each x, each class's value is the fsum of the library's own
    # class terms up to x, prime logs and prime-power weights together
    xs = [1, 2, 3, 4, 8, 9, 25, 121, 997, 1000]
    q = 12
    primes = progressions.primes_upto(xs[-1])
    powers = progressions.prime_powers(xs[-1])
    logs = np.log(primes.astype(np.float64)).tolist()
    terms = [*zip(primes.tolist(), logs), *powers]
    calls = []
    for name in ("primes_upto", "prime_windows", "prime_powers"):
        real = getattr(progressions, name)
        monkeypatch.setattr(progressions, name,
                            lambda x, name=name, real=real: calls.append(name) or real(x))
    rows = chebyshev_ap(xs, q)
    assert calls == ["prime_windows", "prime_powers"]
    assert [(r.x, r.q, r.a) for r in rows] == [(x, q, a) for x in xs for a in range(q)]
    assert [r.value for r in rows] == [
        fsum(w for n, w in terms if n <= x and n % q == a) for x in xs for a in range(q)]


def test_chebyshev_residual_is_small_at_1e6():
    r = chebyshev_ap([10 ** 6], 3)[1]
    assert r.expected == pytest.approx(5 * 10 ** 5, rel=1e-12)
    assert abs(r.residual) < 0.01 * 10 ** 6


def test_large_sieve_trivial_modulus_only():
    rep = large_sieve_check(10, 1, ones_sequence(10))
    assert rep.lhs == 0.0
    assert rep.slack > 0


def test_large_sieve_constant_sequence():
    rep = large_sieve_check(100, 10, ones_sequence(100))
    assert rep.slack >= 0


def test_large_sieve_standard_configurations():
    for x, Q in ((100, 10), (1000, 30)):
        for seq in (ones_sequence(x), prime_indicator_sequence(x)):
            assert large_sieve_check(x, Q, seq).slack >= 0
        for seed in range(20):
            seq = random_sign_sequence(x, seed)
            assert large_sieve_check(x, Q, seq).slack >= 0


def test_large_sieve_sums_are_the_fsums_of_their_terms():
    # real-valued sequences whose sums round: the x-term sums are taken
    # without a list, and must still be the fsum of the terms
    rng = np.random.default_rng(2024)
    for x, Q in ((1000, 30), (5000, 7)):
        seq = rng.normal(size=x) * 2.0 ** rng.integers(-30, 30, size=x)
        total = fsum(seq.tolist())
        n = np.arange(1, x + 1)
        lhs = fsum(q * fsum(((np.bincount(n % q, weights=seq, minlength=q)
                              - total / q) ** 2).tolist())
                   for q in range(1, Q + 1))
        rhs = Q * (10.0 * Q + 2.0 * math.pi * x) * fsum((seq * seq).tolist())
        rep = large_sieve_check(x, Q, seq)
        assert (rep.lhs, rep.rhs) == (lhs, rhs)


def test_large_sieve_holds_no_list_of_the_sequence():
    # a Python float list holds 32 bytes per term; beside the sequence, the
    # check holds one float64 array of x entries, a_n^2, and arrays of a
    # fixed size: no index array and no residues of x entries
    x = 2_000_000
    for seq in (ones_sequence(x), random_sign_sequence(x, 1)):
        tracemalloc.start()
        try:
            large_sieve_check(x, 3, seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * x


def test_large_sieve_guards():
    with pytest.raises(ValueError):
        large_sieve_check(10, 11, ones_sequence(10))
    with pytest.raises(ValueError):
        large_sieve_check(10, 2, ones_sequence(9))


def test_random_sequence_is_seed_deterministic():
    a = random_sign_sequence(500, 7)
    b = random_sign_sequence(500, 7)
    c = random_sign_sequence(500, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert set(np.unique(a)) == {-1.0, 1.0}


def test_random_signs_are_the_bits_of_the_stdlib_generator():
    # the first 32 signs of two seeds, pinned: a change of generator shows
    # here; a_n is +1 where bit n - 1 of Random(seed).getrandbits(x) is set
    signs = {0: "+-++--+++++-------++-+-----++-++",
             7: "---+++----+-++-+-++--+++-+--+-+-"}
    for seed, text in signs.items():
        assert random_sign_sequence(32, seed).tolist() == [
            1.0 if c == "+" else -1.0 for c in text]
        # the first 32 signs are the same for every x >= 32
        assert random_sign_sequence(1001, seed)[:32].tolist() == (
            random_sign_sequence(32, seed).tolist())


def test_random_signs_refuse_a_negative_seed():
    # the stdlib seeds -s as s, so a report's seed would not name its signs
    with pytest.raises(ValueError, match="seed must be >= 0"):
        random_sign_sequence(10, -1)
