import math
import random
import tracemalloc
from math import fsum, log

import numpy as np
import pytest

import oracles
from germain_lab import counting, sieve
from germain_lab.arith import factorize
from germain_lab.cli import main
from germain_lab.counting import (census, hl_prediction, pair_sums,
                                  psi0_partition, reciprocal_sums)
from germain_lab.progressions import chebyshev_ap, large_sieve_check
from germain_lab.sieve import pair_primes


def test_pair_primes_canonical_prefix():
    assert pair_primes(25).tolist() == [2, 3, 5, 11, 23]


def test_pair_primes_slope_four():
    pairs = [(p, 4 * p + 1) for p in pair_primes(10, 4, 1).tolist()]
    assert pairs == [(3, 13), (7, 29)]


def test_pair_primes_count_at_100():
    ps = pair_primes(100).tolist()
    expected = [p for p in oracles.primes_upto(100)
                if oracles.is_prime_trial(2 * p + 1)]
    assert ps == expected
    assert len(ps) == 10


def test_pair_primes_negative_offset():
    expected = [p for p in oracles.primes_upto(50)
                if oracles.is_prime_trial(2 * p - 1)]
    assert pair_primes(50, 2, -1).tolist() == expected


def test_pair_primes_structure():
    flags = oracles.sieve_flags(2 * 10 ** 4 + 1)
    ps = pair_primes(10 ** 4).tolist()
    for p in ps:
        assert flags[p] and flags[2 * p + 1]
    assert ps == sorted(ps)


def test_pair_primes_guards():
    with pytest.raises(ValueError):
        pair_primes(1)
    with pytest.raises(ValueError):
        pair_primes(10, 0, 1)
    with pytest.raises(ValueError):
        pair_primes(8, 1 << 62, 1)  # a*x+b overflows 64 bits


def test_psi_g_small_values():
    (_, at_1, _), (_, at_3, _) = pair_sums([1, 3])
    assert at_1 == 0.0
    assert at_3 == pytest.approx(log(2) * log(5) + log(3) * log(7), rel=1e-14)


def test_psi_g_matches_brute_force():
    assert pair_sums([2000])[0][1] == pytest.approx(
        oracles.psi_pair_brute(2000, 2, 1, 1), rel=1e-12)
    assert pair_sums([500], 4, 1)[0][1] == pytest.approx(
        oracles.psi_pair_brute(500, 4, 1, 1), rel=1e-12)


def test_psi_g_reconstructed_from_pair_list():
    # pair-list part plus prime-power corrections reproduces the sum
    x = 10 ** 5
    main = fsum(log(p) * log(2 * p + 1) for p in pair_primes(x).tolist())
    rest = fsum(
        oracles.von_mangoldt_naive(n) * oracles.von_mangoldt_naive(2 * n + 1)
        for n in range(1, x + 1)
        if not (oracles.is_prime_trial(n) and oracles.is_prime_trial(2 * n + 1)))
    assert pair_sums([x])[0][1] == pytest.approx(main + rest, rel=1e-9)


def test_psi_g_ratio_near_one(c2_1e6):
    x = 10 ** 5
    assert 0.8 < pair_sums([x])[0][1] / (2 * c2_1e6.value * x) < 1.2


def test_psi_g_slope_four_grows():
    vals = [pg for _, pg, _ in pair_sums([10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6], 4, 1)]
    assert all(v > 0 for v in vals)
    assert vals == sorted(vals)


def test_psi0_small_values():
    (_, _, at_1), (_, _, at_3) = pair_sums([1, 3])
    assert at_1 == 0.0
    assert at_3 == pytest.approx(
        log(2) * log(5) ** 2 + log(3) * log(7) ** 2, rel=1e-14)


def test_psi0_matches_filtered_loop():
    # second loop filters on Lambda(2n+1) != 0 first
    x = 10 ** 4
    brute = fsum(
        oracles.von_mangoldt_naive(n) * oracles.von_mangoldt_naive(2 * n + 1) ** 2
        for n in range(1, x + 1) if oracles.von_mangoldt_naive(2 * n + 1) > 0)
    assert pair_sums([x])[0][2] == pytest.approx(brute, rel=1e-12)


def test_pair_sums_below_two_are_zero_without_a_pass(monkeypatch):
    def no_pass(*args, **kwargs):
        raise AssertionError("the pair sieve ran")

    monkeypatch.setattr(counting, "pair_windows", no_pass)
    assert pair_sums([1]) == [(0, 0.0, 0.0)]
    assert pair_sums([]) == []


@pytest.mark.parametrize("x,a,b", [
    (1, 2, 1), (2, 2, 1), (10 ** 4, 2, 1), (10 ** 4, 4, 3), (10 ** 4, 2, -1),
    (3000, 3, 1), (500, 7, -60), (50, 1, -3), (10, 1, -200), (3, 2 ** 20 - 4, 7),
    (100, 7, 1), (50, 1, 30)])
def test_companion_powers_are_the_prime_powers_of_the_companion_class(x, a, b):
    # every q^k (k >= 2) = a n + b with 2 <= n <= x, from trial-division
    # primes; 2^3 = 7*1 + 1 and 2^3 = 1*(-22) + 30 are at n below 2
    top = a * x + b
    want = sorted((q ** k, math.log(q))
                  for q in oracles.primes_upto(math.isqrt(max(top, 0)))
                  for k in range(2, top.bit_length())
                  if q ** k <= top and (q ** k - b) % a == 0 and q ** k - b >= 2 * a)
    assert sieve.prime_powers(x, a, b) == want
    assert want or (x, a, b) in {(1, 2, 1), (2, 2, 1), (10, 1, -200), (3, 2 ** 20 - 4, 7)}


def test_companion_powers_hold_one_window_not_every_prime():
    # a*x + b near 2^41 has 112,957 primes up to its square root: one
    # (m, log q) tuple for each of their powers, sorted, peaked at 18.3 MB.
    # Filtered one window of primes at a time, the powers stay below the
    # bytes of one int64 array of those primes
    x, a, b = 2, 2 ** 40 - 4, 7
    primes = sum(w.size for w in sieve.prime_windows(math.isqrt(a * x + b)))
    sieve.prime_powers(100, 2, 1)  # numpy's lazy set-up is not the search's
    tracemalloc.start()
    try:
        assert sieve.prime_powers(x, a, b) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * primes


def test_pair_sums_rejects_unordered_or_nonpositive_checkpoints():
    with pytest.raises(ValueError, match="strictly ascending"):
        pair_sums([100, 10])
    with pytest.raises(ValueError, match="strictly ascending"):
        pair_sums([10, 10])
    with pytest.raises(ValueError, match="x must be >= 1, got 0"):
        pair_sums([0, 10])


def test_partition_with_full_box_has_no_error_term():
    x = 80
    m, e = psi0_partition(x, 2 * x + 1)
    assert e == 0.0
    assert m == pytest.approx(pair_sums([x])[0][2], rel=1e-9)


def test_partition_reproduces_psi0():
    m, e = psi0_partition(50, 5)
    assert m + e == pytest.approx(pair_sums([50])[0][2], rel=1e-8)


def test_partition_main_term_positive_at_log_squared_cutoff():
    m, _ = psi0_partition(200, log(200) ** 2)
    assert m > 0


def test_partition_random_cases():
    rng = random.Random(1905)
    for _ in range(10):
        x = rng.randrange(10, 301)
        x1 = 1 + rng.random() * (2 * x)
        m, e = psi0_partition(x, x1)
        p0 = pair_sums([x])[0][2]
        assert abs(m + e - p0) <= 1e-8 * abs(p0)


# (x, x1, main, error) from the dense lcm-matrix implementation this one
# replaced, which built every pair (d1, d2) and zeroed those with lcm > 2x+1
PINNED_PARTITIONS = [
    (1, 1, 0.0, 0.0),
    (1, 3, 0.0, 0.0),
    (2, 2.5, 0.0, 1.7954524834189096),
    (3, 3, 0.0, 5.95542076146019),
    (3, 7, 5.95542076146019, 0.0),
    (5, 1, 0.0, 16.0461238827415),
    (7, 15, 16.0461238827415, 0.0),
    (10, 2.5, 0.0, 31.13474604988251),
    (10, 10, 21.06241595082762, 10.072330099054888),
    (37, log(37) ** 2, 207.19305000116674, -46.92291927970473),
    (37, 50.5, 158.88587734961396, 1.3842533718480405),
    (37, 75, 160.270130721462, 0.0),
    (100, 1, 0.0, 584.5105335247644),
    (100, 3, 54.8514587931636, 529.6590747316008),
    (100, log(100) ** 2, 520.1005246808699, 64.41000884389459),
    (100, 100, 781.9339390548162, -197.42340553005178),
    (255, 50.5, 2005.962508335084, 154.5180970999665),
    (255, 511, 2160.4806054350506, 0.0),
    (1000, log(1000) ** 2, 8901.338054275002, -688.0335005891699),
    (1000, 1000, 18766.38669364169, -10553.082139955859),
    (3000, log(3000) ** 2, 27162.837478189922, 4832.353247805185),
    # from the row form, past the CLI goldens (x <= 120) and perfbench's
    # digest (x <= 3000): the default cutoff, where most rows lie past x1,
    # and the full box, where every row is in it
    (30000, log(30000) ** 2, 356100.8705007719, 37925.434087201465),
    (10000, 20001, 114112.97494615708, 0.0),
]


@pytest.mark.parametrize("x, x1, main, error", PINNED_PARTITIONS)
def test_partition_pinned_bit_for_bit(x, x1, main, error):
    # hex tells -0.0 from 0.0 and shows every bit
    m, e = psi0_partition(x, x1)
    assert (m.hex(), e.hex()) == (main.hex(), error.hex())


def test_partition_main_and_error_match_the_expanded_brute_sum():
    for x in range(1, 61):
        top = 2 * x + 1
        cutoffs = {1, 3, 7.5, max(1.0, log(x) ** 2), x, top}
        for x1 in sorted(c for c in cutoffs if c <= top):
            m, e = psi0_partition(x, x1)
            bm, be = oracles.psi0_partition_brute(x, x1)
            assert m == pytest.approx(bm, rel=1e-12, abs=1e-9), (x, x1)
            assert e == pytest.approx(be, rel=1e-12, abs=1e-9), (x, x1)


def test_partition_guards():
    with pytest.raises(ValueError):
        psi0_partition(50, 0.5)
    with pytest.raises(ValueError):
        psi0_partition(50, 102)


# the library's own refusals, each with its message; the CLI's checks keep
# its argv from reaching them
@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: factorize(0), "cannot factor n=0", id="factorize"),
    pytest.param(lambda: psi0_partition(0, 1.0), "x must be >= 1, got 0",
                 id="partition-x"),
    pytest.param(lambda: psi0_partition(counting.PARTITION_CAP + 1, 1.0),
                 f"x={counting.PARTITION_CAP + 1} is above the cap "
                 f"{counting.PARTITION_CAP}: the partition walks every odd "
                 "squarefree d <= 2x\\+1 in Python", id="partition-cap"),
    pytest.param(lambda: chebyshev_ap([10], 0), "q must be >= 1, got 0",
                 id="chebyshev-q"),
    pytest.param(lambda: large_sieve_check(10, 0, np.ones(10)),
                 "Q must be >= 1, got 0", id="large-sieve-Q"),
])
def test_library_refusals_come_before_any_table(call, message, monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built")

    for name in ("_flags", "prime_powers", "mobius_sieve"):
        monkeypatch.setattr(counting, name, no_table)
    with pytest.raises(ValueError, match=message):
        call()


def test_hl_prediction_empty_integral(c2_1e6):
    assert hl_prediction(2, c2=c2_1e6) == 0.0
    with pytest.raises(ValueError):
        hl_prediction(1.5, c2=c2_1e6)
    with pytest.raises(TypeError):
        hl_prediction(100)  # c2 is required


def test_hl_prediction_refuses_a_companion_log_at_or_below_zero(c2_1e6):
    # log(a t + b) must stay positive on [2, x]
    with pytest.raises(ValueError, match="a must be >= 1, got 0"):
        hl_prediction(100, 0, 5, c2=c2_1e6)
    for a, b in [(1, -1), (1, -5), (3, -5)]:
        with pytest.raises(ValueError, match=rf"got a={a}, b={b}, 2a\+b={2 * a + b}$"):
            hl_prediction(100, a, b, c2=c2_1e6)
    assert hl_prediction(100, 1, 0, c2=c2_1e6) > 0.0  # 2a + b = 2


def test_hl_prediction_agrees_with_fixed_grid(c2_1e6):
    fixed = 2 * c2_1e6.value * oracles.simpson_fixed(
        lambda t: 1.0 / (log(t) * log(2 * t + 1)), 2.0, 100.0, 10 ** 5)
    adaptive = hl_prediction(100, c2=c2_1e6)
    assert abs(adaptive - fixed) <= 1e-6 * abs(fixed)


def test_hl_prediction_monotone(c2_1e6):
    vals = [hl_prediction(x, c2=c2_1e6) for x in (10, 100, 1000)]
    assert 0 < vals[0] < vals[1] < vals[2]


def test_reciprocal_sum_values(c2_1e6):
    (at_2, _, _), (at_23, _, _) = reciprocal_sums([2, 23], lambda: c2_1e6)
    assert at_2 == 0.5
    assert at_23 == pytest.approx(1.167720685111989459, rel=1e-15)


def test_reciprocal_sum_tail_is_slim(c2_1e6):
    (r6, _, _), (r7, _, _) = reciprocal_sums([10 ** 6, 10 ** 7], lambda: c2_1e6)
    # the tail decays like 1/log^2: about 0.013 across this decade
    assert 0 < r7 - r6 < 0.02


def test_logp_sum_small_values(c2_1e6):
    (_, at_2, _), (_, at_3, _) = reciprocal_sums([2, 3], lambda: c2_1e6)
    assert at_2 == pytest.approx(log(2) / 2, rel=1e-14)
    assert at_3 == pytest.approx(log(2) / 2 + log(3) / 3, rel=1e-14)


def test_logp_fit_residual_bounded_and_not_growing(c2_1e6):
    residuals = [abs(r) for _, _, r in
                 reciprocal_sums([10 ** 4, 10 ** 5, 10 ** 6], lambda: c2_1e6)]
    assert all(r < 0.6 for r in residuals)
    assert residuals[2] <= residuals[0]


def test_reciprocal_sums_equal_the_per_prime_loop(c2_1e6, monkeypatch):
    # the loop over Python ints the one-pass arrays replaced: the same
    # doubles, so the fsums are equal, not just close
    monkeypatch.setattr(sieve, "PAIR_WINDOW", 1 << 9)
    xs = [2, 23, 1000, 10 ** 4, 10 ** 5]
    rows = reciprocal_sums(xs, lambda: c2_1e6)
    a0 = 2.0 * c2_1e6.value
    for x, (rec, logp, residual) in zip(xs, rows):
        ps = pair_primes(x, 2, 1).tolist()
        assert rec == fsum(1.0 / p for p in ps)
        assert logp == fsum(math.log(p) / p for p in ps)
        assert residual == logp - (a0 * math.log(math.log(x)) + a0 / math.log(x))


def _no_c2():
    raise AssertionError("the C2 product was built")


def test_reciprocal_sums_refuse_x_below_two_and_unordered(c2_1e6):
    with pytest.raises(ValueError, match="x must be >= 2, got 1"):
        reciprocal_sums([1, 10], _no_c2)
    with pytest.raises(ValueError, match="strictly ascending"):
        reciprocal_sums([100, 10], lambda: c2_1e6)


def test_census_report_consistency(c2_1e6):
    [r] = census([10 ** 3], 2, 1, lambda: c2_1e6)
    assert r.pi_g == len(pair_primes(10 ** 3))
    assert r.psi_g == pytest.approx(pair_sums([10 ** 3])[0][1], rel=1e-15)
    assert r.ratio == pytest.approx(r.psi_g / (2 * c2_1e6.value * 10 ** 3), rel=1e-15)
    assert r.hl_prediction > 0


@pytest.mark.parametrize("a,b", [(2, 1), (4, 1), (2, -1), (1, 2), (3, 3), (6, 1),
                                 (1, 1), (1, -5), (6, 3), (15, -40), (7, 14),
                                 (21, -7)])
def test_pair_sieve_matches_trial_division(a, b, monkeypatch):
    # (3, 3), (6, 3): 3 divides a and b; (1, 1): a + b even, so every
    # companion of an odd p is even; (1, -5): a*p+b < 2 for the smallest p;
    # (15, -40): 5 divides every companion, and 15*3 - 40 is 5 itself;
    # (7, 14), (21, -7): 7 divides every companion, and a + b is odd
    x = 3000
    expected = [p for p in oracles.primes_upto(x)
                if oracles.is_prime_trial(a * p + b)]
    for window in (1, 37, 256):  # many window boundaries inside [2, x]
        monkeypatch.setattr(sieve, "PAIR_WINDOW", window)
        assert sieve.pair_primes(x, a, b).tolist() == expected


def test_pair_sums_beyond_former_dense_table_guard():
    # a*x+b > 2^31: the counting functions used to refuse this range
    x, a, b = 30, 1 << 26, 1
    expected = [p for p in oracles.primes_upto(x)
                if oracles.is_prime_trial(a * p + b)]
    assert pair_primes(x, a, b).tolist() == expected
    assert pair_sums([x], a, b)[0][1] == pytest.approx(
        oracles.psi_pair_brute(x, a, b, 1), rel=1e-12)


def test_census_one_pass_equals_single_checkpoint_calls(c2_1e6, monkeypatch):
    monkeypatch.setattr(sieve, "PAIR_WINDOW", 1 << 9)
    xs = [10, 100, 1000, 10 ** 4, 10 ** 5]
    for a, b in [(2, 1), (4, 1), (2, -1)]:
        rows = census(xs, a, b, lambda: c2_1e6)
        assert rows == [census([x], a, b, lambda: c2_1e6)[0] for x in xs]
        assert [r.psi_g for r in rows] == [pair_sums([x], a, b)[0][1] for x in xs]
        assert [r.psi0 for r in rows] == [pair_sums([x], a, b)[0][2] for x in xs]
        assert [r.pi_g for r in rows] == [len(pair_primes(x, a, b)) for x in xs]


def test_census_rejects_unordered_or_tiny_checkpoints(c2_1e6, monkeypatch):
    with pytest.raises(ValueError):
        census([100, 10], 2, 1, lambda: c2_1e6)

    def no_pass(*args, **kwargs):
        raise AssertionError("the pair sieve ran")

    monkeypatch.setattr(counting, "pair_windows", no_pass)
    with pytest.raises(ValueError, match="x must be >= 2, got 1"):
        census([1, 10 ** 8], 2, 1, _no_c2)
    with pytest.raises(ValueError, match="2a\\+b must be >= 2"):
        census([100], 1, -1, _no_c2)


# a*x + b = 2^50 + 1, past the pair sieve's base primes, and 2^63 + 1, past int64
@pytest.mark.parametrize("a,message", [(2 ** 49, "is at or above 2\\^50"),
                                       (2 ** 62, "overflows the supported 64-bit range")])
def test_census_refuses_the_pair_range_before_c2(a, message):
    with pytest.raises(ValueError, match=message):
        census([2], a, 1, _no_c2)


@pytest.mark.parametrize("x,message", [(6 * 10 ** 14, "is at or above 2\\^50"),
                                       (2 ** 62, "overflows the supported 64-bit range")])
def test_reciprocal_sums_refuse_the_pair_range_before_c2(x, message):
    with pytest.raises(ValueError, match=message):
        reciprocal_sums([10, x], _no_c2)


# past int64, as the only checkpoint and beside one below 2
@pytest.mark.parametrize("xs", [[10 ** 20], [1, 10 ** 20]])
def test_pair_sums_refuse_the_pair_range_before_the_keys(xs, monkeypatch):
    def no_pass(*args, **kwargs):
        raise AssertionError("the pair sieve ran")

    monkeypatch.setattr(counting, "pair_windows", no_pass)
    with pytest.raises(ValueError, match="overflows the supported 64-bit range"):
        pair_sums(xs)


def test_census_report_bytes_pinned(capsys):
    # recorded before the census moved to the one-pass pair sieve
    assert main(["census", "--x", "1e2,1e3,1e4,1e5,1e6"]) == 0
    assert capsys.readouterr().out == (
        "x,pi_g,psi_g,psi0,hl_prediction,ratio\n"
        "100,10,135.6697560525,584.510533524764,10.198687277381,1.02754918264501\n"
        "1000,37,1260.66321364961,8213.30455368583,39.0975590477181,0.954813727441957\n"
        "10000,190,12879.5807227413,114112.974946157,194.576607189251,0.975486580763212\n"
        "100000,1171,132935.679257766,1490172.95981716,1165.94585627493,1.00684155806116\n"
        "1000000,7746,1308856.35525036,17676218.1158354,7810.63899538153,0.991314731572742\n")
