import pytest

from germain_lab.constants import twin_prime_constant


@pytest.fixture(scope="session")
def c2_1e6():
    return twin_prime_constant(10 ** 6)
