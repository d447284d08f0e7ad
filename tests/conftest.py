import pytest

from germain_lab import constants, sieve
from germain_lab.constants import twin_prime_constant


@pytest.fixture(scope="session")
def c2_1e6():
    return twin_prime_constant(10 ** 6)


@pytest.fixture
def small_windows(monkeypatch):
    """Windows of 2^11 odd integers; returns the (windows, threads) of each fan-out.

    Small windows make the checkpoints of the determinism tests span several
    windows, so that more than one thread really runs.
    """
    monkeypatch.setattr(sieve, "PAIR_WINDOW", 1 << 11)
    calls = []
    for module in (sieve, constants):
        fan_out = module._map_windows

        def recorded(fn, bounds, threads, fan_out=fan_out):
            calls.append((len(bounds), threads))
            return fan_out(fn, bounds, threads)

        monkeypatch.setattr(module, "_map_windows", recorded)
    return calls
