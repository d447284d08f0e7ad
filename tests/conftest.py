import pytest

from germain_lab import sieve
from germain_lab.constants import twin_prime_constant


@pytest.fixture(scope="session")
def c2_1e6():
    return twin_prime_constant(10 ** 6)


@pytest.fixture
def small_windows(monkeypatch):
    """Windows of 2^11 odd integers; returns the (windows, threads) of each
    sieve.map_prime_windows call.

    Small windows make the ranges of the determinism tests span several
    windows, so that more than one thread really runs.
    """
    monkeypatch.setattr(sieve, "PAIR_WINDOW", 1 << 11)
    calls = []
    fan_out = sieve.map_prime_windows

    def recorded(fn, limit, *, threads=1):
        out = fan_out(fn, limit, threads=threads)
        calls.append((len(out), threads))
        return out

    monkeypatch.setattr(sieve, "map_prime_windows", recorded)
    return calls
