import pytest

from germain_lab import sieve
from germain_lab.constants import twin_prime_constant


@pytest.fixture(scope="session")
def c2_1e6():
    return twin_prime_constant(10 ** 6)


@pytest.fixture
def small_windows(monkeypatch):
    """Pair windows of 2^11 entries per class, plain-prime windows of 2^10;
    returns the array count of each sieve.prime_windows call that ran to
    its end, the first array, [2, 3, 5], included.

    Small windows make the ranges of the determinism tests span several
    windows of each class, so that the C2 product reads many arrays that
    interleave across its grid's intervals.
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
