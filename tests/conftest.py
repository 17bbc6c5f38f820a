import random

import pytest

from cayley8.verify import random_polynomial, random_tensor


@pytest.fixture
def rng():
    return random.Random(20240)


@pytest.fixture
def make_tensor(rng):
    def factory(variance, degree, max_terms=4, max_poly_degree=2):
        return random_tensor(rng, variance, degree, max_terms, max_poly_degree)

    return factory


@pytest.fixture
def make_poly(rng):
    def factory(max_degree=2):
        return random_polynomial(rng, max_degree)

    return factory
