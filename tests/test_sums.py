import math
from math import fsum, log

import pytest

import oracles
from germain_lab.constants import singular_series
from germain_lab.sums import (gcd_via_phi, lcm_reciprocal_identity_residual,
                              log_lcm_double_sum, mobius_phi_lcm_sum,
                              phi_lcm_reciprocal_identity_residual,
                              squarefree_harmonic_sum, twisted_mobius_sum)


def test_gcd_via_phi_examples():
    assert gcd_via_phi(1, 360) == 1
    assert gcd_via_phi(12, 18) == 6
    for p in (2, 3, 5, 97, 991):
        assert gcd_via_phi(p, p) == p
    with pytest.raises(ValueError):
        gcd_via_phi(0, 5)


def test_identity_residuals_examples():
    assert lcm_reciprocal_identity_residual(1, 1) == 0
    assert lcm_reciprocal_identity_residual(12, 18) == 0
    assert phi_lcm_reciprocal_identity_residual(1, 1) == 0
    assert phi_lcm_reciprocal_identity_residual(4, 6) == 0


def test_identity_residuals_exhaustive_small():
    for m in range(1, 61):
        for n in range(1, 61):
            assert gcd_via_phi(m, n) == math.gcd(m, n)
            assert lcm_reciprocal_identity_residual(m, n) == 0
            assert phi_lcm_reciprocal_identity_residual(m, n) == 0


def test_log_lcm_smallest_case():
    expected = log(2) ** 2 / 2
    assert log_lcm_double_sum(2, "brute") == pytest.approx(expected, rel=1e-15)
    assert log_lcm_double_sum(2, "rearranged") == pytest.approx(expected, rel=1e-15)


def test_log_lcm_brute_matches_oracle():
    assert log_lcm_double_sum(50, "brute") == pytest.approx(
        oracles.log_lcm_brute(50), rel=1e-12)


def test_log_lcm_rearranged_matches_brute():
    for x in (50, 200):
        b = log_lcm_double_sum(x, "brute")
        r = log_lcm_double_sum(x, "rearranged")
        assert abs(r - b) <= 1e-9 * abs(b)


def test_log_lcm_relaxed_is_a_lower_envelope():
    # dropping the log(d*) offset only shrinks the positive inner sums
    for x in (50, 500):
        assert log_lcm_double_sum(x, "relaxed") < log_lcm_double_sum(x, "rearranged")


def test_log_lcm_growth_bounded_by_log_power():
    ratios = [log_lcm_double_sum(x, "rearranged") / log(x) ** 5
              for x in (100, 1000, 10 ** 4)]
    assert all(r < 0.15 for r in ratios)


def test_log_lcm_guards():
    with pytest.raises(ValueError):
        log_lcm_double_sum(1)
    with pytest.raises(ValueError):
        log_lcm_double_sum(3000, "brute")
    with pytest.raises(ValueError):
        log_lcm_double_sum(10, "nonsense")


def test_mobius_phi_lcm_smallest_case():
    expected = log(2) ** 2
    assert mobius_phi_lcm_sum(2, "brute") == pytest.approx(expected, rel=1e-15)
    assert mobius_phi_lcm_sum(2, "diagonalized") == pytest.approx(expected, rel=1e-15)


def test_mobius_phi_lcm_brute_matches_oracle():
    assert mobius_phi_lcm_sum(60, "brute") == pytest.approx(
        oracles.mobius_phi_lcm_brute(60), rel=1e-12)


def test_mobius_phi_lcm_diagonalized_matches_brute():
    for x in (50, 100, 200):
        b = mobius_phi_lcm_sum(x, "brute")
        d = mobius_phi_lcm_sum(x, "diagonalized")
        assert abs(d - b) <= 1e-9 * abs(b)


def test_mobius_phi_lcm_single_square_shortcut_is_not_an_identity():
    # the "relaxed" single-square form overshoots badly; keeping it exact
    # requires the two-level regrouping used by "diagonalized"
    b = mobius_phi_lcm_sum(50, "brute")
    r = mobius_phi_lcm_sum(50, "relaxed")
    assert abs(r - b) > 0.5 * abs(b)


def test_method_equivalence_at_brute_cap():
    x = 2000
    s_b = log_lcm_double_sum(x, "brute")
    s_r = log_lcm_double_sum(x, "rearranged")
    assert abs(s_r - s_b) <= 1e-9 * abs(s_b)
    b_b = mobius_phi_lcm_sum(x, "brute")
    b_d = mobius_phi_lcm_sum(x, "diagonalized")
    assert abs(b_d - b_b) <= 1e-9 * abs(b_b)


def test_mobius_phi_lcm_positive_and_increasing():
    vals = [mobius_phi_lcm_sum(x, "diagonalized") for x in (100, 1000, 10 ** 4)]
    assert all(v > 0 for v in vals)
    assert vals[0] < vals[1] < vals[2]


def test_double_sums_symmetric_under_transposition():
    # the library iterates row-major; the oracle walks column-major
    b = mobius_phi_lcm_sum(60, "brute")
    assert b == pytest.approx(oracles.mobius_phi_lcm_brute(60), rel=1e-12)


def test_squarefree_harmonic_examples():
    assert squarefree_harmonic_sum(1).value == 1.0
    v = squarefree_harmonic_sum(10).value
    assert v == pytest.approx(171 / 70, abs=1e-14)  # 1,2,3,5,6,7,10


def test_squarefree_harmonic_residual_settles():
    # the residual against (6/pi^2) log x approaches a constant near 1.044
    r5 = squarefree_harmonic_sum(10 ** 5).residual
    r6 = squarefree_harmonic_sum(10 ** 6).residual
    assert abs(r6) < 1.1
    assert abs(r6 - r5) < 1e-2


def test_twisted_sum_examples():
    assert twisted_mobius_sum(1, 1, True) == 0.0
    v = twisted_mobius_sum(2, 10, False)
    assert v == pytest.approx(1 - 1 / 2 - 1 / 4 - 1 / 6, abs=1e-14)  # n in {1,3,5,7}


def test_twisted_sum_matches_brute_enumeration():
    for m, x, with_log in ((2, 50, True), (3, 40, False), (6, 30, True)):
        brute = fsum(
            oracles.mobius_naive(n) * (log(n) if with_log else 1.0)
            / oracles.totient_brute(n)
            for n in range(1, x + 1)
            if math.gcd(n, m) == 1 and oracles.mobius_naive(n) != 0)
        assert twisted_mobius_sum(m, x, with_log) == pytest.approx(brute, abs=1e-12)


def test_twisted_log_sum_approaches_singular_series_in_absolute_value(c2_1e6):
    target = singular_series(2, c2_1e6).value
    gaps = [abs(abs(twisted_mobius_sum(2, x, True)) - target)
            for x in (10 ** 3, 10 ** 4, 10 ** 5)]
    assert gaps[-1] < gaps[0]
    assert all(g < 0.05 for g in gaps)
    # observed sign of the finite sums is negative throughout this range
    assert twisted_mobius_sum(2, 10 ** 4, True) < 0


def test_plain_twisted_sum_tends_to_zero():
    assert abs(twisted_mobius_sum(2, 10 ** 5, False)) < 0.01

