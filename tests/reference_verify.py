"""Reference generators for the stream-parity tests of ``cayley8.verify``.

These are the bodies that ``random_fraction``, ``random_polynomial`` and
``random_tensor`` had before they drew through ``verify._below`` and built
packed fields and tensors directly: they draw with ``randint``,
``randrange`` and ``choice``, sum ``(exp, num, den)`` quotients with
``Polynomial.from_quotients`` and hand the terms to the ``GradedTensor``
constructor.  ``test_verify.py`` draws from both with identically seeded
RNGs and checks equal results and equal RNG states.
"""

from __future__ import annotations

import random
from fractions import Fraction

from cayley8.multiindex import DIM, basis
from cayley8.polynomial import Polynomial
from cayley8.tensor import MULTIVECTOR, GradedTensor, unit, wedge

_NONZERO_NUMERATORS = tuple(i for i in range(-9, 10) if i)


def random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.choice(_NONZERO_NUMERATORS), rng.randint(1, 3))


def random_polynomial(rng: random.Random, max_degree: int = 2) -> Polynomial:
    quotients = []
    for _ in range(rng.randint(1, 3)):
        exp = [0] * DIM
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(DIM)] += 1
        quotients.append((exp, rng.choice(_NONZERO_NUMERATORS), rng.randint(1, 3)))
    return Polynomial.from_quotients(quotients)


def random_tensor(
    rng: random.Random,
    variance: str,
    degree: int,
    max_terms: int = 5,
    max_poly_degree: int = 2,
) -> GradedTensor:
    keys = basis(degree)
    terms: dict[tuple[int, ...], Polynomial] = {}
    for _ in range(rng.randint(1, min(max_terms, len(keys)))):
        terms[rng.choice(keys)] = random_polynomial(rng, max_poly_degree)
    return GradedTensor(variance, degree, terms)


def random_vector_field(rng: random.Random) -> GradedTensor:
    return random_tensor(rng, MULTIVECTOR, 1, max_terms=3)


def random_decomposable(rng: random.Random, degree: int) -> GradedTensor:
    out = unit(MULTIVECTOR)
    for _ in range(degree):
        out = wedge(out, random_vector_field(rng))
    return out
