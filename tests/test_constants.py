import math
import random

import pytest

from germain_lab import sieve
from germain_lab.arith import factorize
from germain_lab.constants import singular_series, twin_prime_constant
from germain_lab.sieve import _windows

# Classical twin-prime constant, prod_{p>=3} (1 - 1/(p-1)^2), OEIS A005597.
TRUE_C2 = 0.6601618158468695739278121100145


def test_single_factor_cutoff():
    v = twin_prime_constant(3)
    assert v.value == pytest.approx(0.75, abs=1e-15)
    assert v.d == 2
    assert twin_prime_constant(4).value == pytest.approx(0.75, abs=1e-15)


def test_cutoff_below_three_rejected():
    with pytest.raises(ValueError):
        twin_prime_constant(2)


def test_product_is_monotone_decreasing_in_cutoff():
    vals = [twin_prime_constant(c).value for c in (3, 10, 100, 10 ** 4, 10 ** 6)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("cutoff", [3, 10, 1000, 10 ** 4, 10 ** 6])
def test_value_within_tail_bound_of_true_constant(cutoff):
    v = twin_prime_constant(cutoff)
    assert abs(v.value - TRUE_C2) <= v.tail_bound


def test_successive_gaps_below_tail_bound():
    v4 = twin_prime_constant(10 ** 4)
    v6 = twin_prime_constant(10 ** 6)
    assert 0 < v4.value - v6.value < v4.tail_bound
    assert v6.tail_bound < v4.tail_bound


def test_thread_count_does_not_change_value(monkeypatch):
    # small windows, so that three threads really split the product
    monkeypatch.setattr(sieve, "PAIR_WINDOW", 1 << 11)
    assert len(_windows(3, 10 ** 6, 2 * sieve.PAIR_WINDOW)) > 200
    a = twin_prime_constant(10 ** 6, threads=1)
    b = twin_prime_constant(10 ** 6, threads=3)
    assert a.value == b.value
    assert abs(a.value - TRUE_C2) <= a.tail_bound


def test_singular_series_odd_offsets_vanish(c2_1e6):
    assert singular_series(3, c2_1e6).value == 0.0
    assert singular_series(1, c2_1e6).value == 0.0


def test_singular_series_small_offsets(c2_1e6):
    g2 = singular_series(2, c2_1e6)
    assert g2.value == pytest.approx(2 * c2_1e6.value, rel=1e-15)
    g6 = singular_series(6, c2_1e6)
    assert g6.value == pytest.approx(4 * c2_1e6.value, rel=1e-15)
    assert g6.tail_bound == pytest.approx(4 * c2_1e6.tail_bound, rel=1e-12)
    with pytest.raises(ValueError):
        singular_series(0, c2_1e6)


def test_singular_series_exceeds_one_for_even_offsets(c2_1e6):
    for d in range(2, 10 ** 4 + 1, 2):
        g = singular_series(d, c2_1e6)
        assert g.value - g.tail_bound > 1.0


def test_singular_series_depends_only_on_odd_kernel(c2_1e6):
    rng = random.Random(424242)
    for _ in range(100):
        m = rng.randrange(1, 10 ** 6)
        kernel = 1
        for p, _ in factorize(m):
            if p > 2:
                kernel *= p
        assert singular_series(2 * m, c2_1e6).value == \
            singular_series(2 * kernel, c2_1e6).value


def test_printed_claim_matches_truncated_product_not_the_limit():
    # The widely quoted 0.6601618605898407... reproduces the p <= 1e6
    # partial product; the infinite product is smaller from the 8th digit.
    claim = 0.6601618605898407646766938915352060
    v6 = twin_prime_constant(10 ** 6).value
    assert abs(v6 - claim) < 5e-16
    assert abs(TRUE_C2 - claim) > 4e-8
