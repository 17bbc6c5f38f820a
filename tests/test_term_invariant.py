"""Every tensor an operation returns keeps the stored-term invariant.

Keys are strictly increasing index tuples of length ``degree`` and no stored
coefficient is zero, also when the terms of the inputs cancel.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cayley8.calculus import (
    exterior_derivative,
    homotopy_primitive,
    lie_derivative_multivector,
    schouten,
)
from cayley8.multiindex import DIM
from cayley8.polynomial import Polynomial
from cayley8.serialize import document_to_tensor, tensor_to_document
from cayley8.tensor import FORM, MULTIVECTOR, GradedTensor, contract, pullback_linear, wedge

exponents = st.tuples(*[st.integers(0, 2) for _ in range(DIM)])
coefficients = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
polys = st.dictionaries(exponents, coefficients, min_size=1, max_size=3).map(Polynomial)


@st.composite
def tensors(draw, variance, degree=None):
    if degree is None:
        degree = draw(st.integers(0, DIM))
    index = st.sets(st.integers(0, DIM - 1), min_size=degree, max_size=degree)
    keys = draw(st.lists(index.map(lambda s: tuple(sorted(s))), max_size=3))
    return GradedTensor(variance, degree, {key: draw(polys) for key in keys})


def unitriangular():
    """Invertible matrices: unit diagonal plus a few entries above it."""
    above = st.tuples(st.integers(0, DIM - 2), st.integers(1, DIM - 1), st.integers(-2, 2))
    return st.lists(above, max_size=3).map(
        lambda entries: [
            [
                1 if i == j else sum(v for r, c, v in entries if (r, c) == (i, j) and r < c)
                for j in range(DIM)
            ]
            for i in range(DIM)
        ]
    )


def assert_clean(t: GradedTensor) -> None:
    for key, poly in t.terms.items():
        assert isinstance(key, tuple) and len(key) == t.degree
        assert all(isinstance(i, int) and 0 <= i < DIM for i in key)
        assert list(key) == sorted(set(key))
        assert isinstance(poly, Polynomial) and not poly.is_zero()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_linear_and_bilinear_operations(data):
    variance = data.draw(st.sampled_from([FORM, MULTIVECTOR]))
    a = data.draw(tensors(variance))
    b = data.draw(tensors(variance, a.degree))
    c = data.draw(tensors(variance))
    for t in (a + b, a - b, a + (-a), wedge(a, c)):
        assert_clean(t)
    assert (a + (-a)).is_zero() and (a - a).is_zero()
    q = data.draw(tensors(MULTIVECTOR, data.draw(st.integers(0, c.degree))))
    assert_clean(contract(q, data.draw(tensors(FORM, c.degree))))


@settings(max_examples=25, deadline=None)
@given(tensors(FORM, 1), tensors(FORM, 3), tensors(MULTIVECTOR, 1), tensors(MULTIVECTOR, 3))
def test_odd_degree_self_wedge_cancels(a1, a3, q1, q3):
    for a in (a1, a3, q1, q3):
        square = wedge(a, a)
        assert_clean(square)
        assert square.is_zero()


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_differential_operations(data):
    beta = data.draw(tensors(FORM))
    assert_clean(exterior_derivative(beta))
    assert_clean(exterior_derivative(exterior_derivative(beta)))
    if beta.degree >= 1:
        assert_clean(homotopy_primitive(beta))
    x_field = data.draw(tensors(MULTIVECTOR, 1))
    t = data.draw(tensors(MULTIVECTOR, data.draw(st.integers(0, 3))))
    assert_clean(lie_derivative_multivector(x_field, t))
    assert_clean(lie_derivative_multivector(x_field, x_field))
    q1 = data.draw(tensors(MULTIVECTOR, data.draw(st.integers(0, 2))))
    q2 = data.draw(tensors(MULTIVECTOR, data.draw(st.integers(0, 2))))
    assert_clean(schouten(q1, q2))
    assert_clean(schouten(x_field, x_field))


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_pullback(data):
    matrix = data.draw(unitriangular())
    for variance in (FORM, MULTIVECTOR):
        t = data.draw(tensors(variance, data.draw(st.integers(0, 3))))
        assert_clean(pullback_linear(matrix, t))


@settings(max_examples=30, deadline=None)
@given(tensors(FORM), st.permutations(range(DIM)))
def test_document_to_tensor(t, order):
    doc = tensor_to_document(t)
    # reorder every index list: the permutation sign moves into the coefficient
    for term in doc["terms"]:
        term["idx"] = [i for i in order if i in term["idx"]]
    loaded = document_to_tensor(doc)
    assert_clean(loaded)
    reordered = {
        tuple(term["idx"]): t.terms[tuple(sorted(term["idx"]))] for term in doc["terms"]
    }
    assert loaded == GradedTensor(FORM, t.degree, reordered)


def test_document_terms_that_cancel():
    coeff = [{"exp": [0] * DIM, "num": "3", "den": "2"}]
    doc = {
        "variance": FORM,
        "degree": 2,
        "terms": [{"idx": [0, 1], "coeff": coeff}, {"idx": [1, 0], "coeff": coeff}],
    }
    loaded = document_to_tensor(doc)
    assert_clean(loaded)
    assert loaded.terms == {}
