import numpy as np
import pytest

from dense import dense_largest_prime_table
from multweight import arith, weights


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
    return dense_largest_prime_table(10**4)


@pytest.fixture(scope="session")
def p1_1e5():
    return dense_largest_prime_table(10**5)


@pytest.fixture(scope="session")
def p1_1e6():
    return dense_largest_prime_table(10**6)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def alpha_of():
    """alpha(w, x): alpha(n) for n = 0..x (alpha[0] = 0), the blocks of the
    AlphaWalk over n <= x concatenated; the dense alpha that the tests
    compare with their oracles."""

    def alpha(w, x):
        with np.errstate(over="ignore", invalid="ignore"):
            return np.concatenate([np.zeros(1), *(a.copy() for _, a in weights.AlphaWalk(w, x))])

    return alpha
