import pytest

from germain_lab import sieve
from germain_lab.constants import twin_prime_constant


@pytest.fixture(scope="session")
def c2_1e6():
    return twin_prime_constant(10 ** 6)


@pytest.fixture
def small_windows(monkeypatch):
    """Windows of 2^11 odd integers; returns the array count of each
    sieve.prime_windows call that ran to its end, the first array, [2],
    included.

    Small windows make the ranges of the determinism tests span several
    windows, so that the order in which the window partials are summed
    matters.
    """
    monkeypatch.setattr(sieve, "PAIR_WINDOW", 1 << 11)
    counts = []
    prime_windows = sieve.prime_windows

    def recorded(limit):
        count = 0
        for count, primes in enumerate(prime_windows(limit), 1):
            yield primes
        counts.append(count)

    monkeypatch.setattr(sieve, "prime_windows", recorded)
    return counts
