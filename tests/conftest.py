import numpy as np
import pytest

from multweight import arith


@pytest.fixture(scope="session")
def spf_1e4():
    return arith.build_spf(10**4)


@pytest.fixture(scope="session")
def spf_1e5():
    return arith.build_spf(10**5)


@pytest.fixture(scope="session")
def spf_1e6():
    return arith.build_spf(10**6)


@pytest.fixture(scope="session")
def p1_1e4():
    return arith.largest_prime_table(10**4)


@pytest.fixture(scope="session")
def p1_1e5():
    return arith.largest_prime_table(10**5)


@pytest.fixture(scope="session")
def p1_1e6():
    return arith.largest_prime_table(10**6)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
