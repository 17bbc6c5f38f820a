"""The fast paths against the slow paths they replaced, exactly.

``Polynomial`` (packed exponent keys, integer numerators over one
denominator) is compared through its ``terms`` view with the tuple-and-
``Fraction`` polynomial of ``reference_polynomial.py``.  Coefficients range
over wide denominators, because the shared denominator is where the two
kernels differ.  Squares (a ``(sign, p, p)`` triple among others,
``p * p``, ``p ** n`` and ``inner(t, t)``, which take each cross pair of
terms once) are compared with the reference products too, and their guard
check with that of the general product loop near half the exponent cap.
``ExactMatrix`` (integer rows over one denominator,
fraction-free elimination) is compared with the dense kernels of
``reference_linalg.py`` and with entry-by-entry ``Fraction`` arithmetic on
sparse rational matrices up to 56x56, singular ones included; its forward
pass and back-substitution are compared field by field with the one-loop
Gauss-Jordan body they replaced, in either order of ``rank`` and ``rref``,
on sparse matrices with duplicated, combined and zero rows and on the
matrices of the structure maps.  The forward pass (rows waiting by leading
column) is compared field by field with the scan of every remaining row per
column that it replaced, on those matrices, on direct sums of blocks with
their rows shuffled together and on S - lambda I and T - lambda I; and
``shifted`` with identity arithmetic.  The 7-part of
``project4`` (a sum over the 28 generators) is compared with the 70x70 Gram
projector of ``reference_spin7.py`` on polynomial four-forms.  The
Schouten bracket (Koszul's formula), the multivector Lie derivative and the
cone primitive (a contraction with the Euler field) are compared with the
index loops of ``reference_calculus.py`` on every degree, zero tensors
included; the result degree is compared too, because ``==`` treats zero
tensors of any degree as equal.  The ``PARITY`` sign table is compared with
the index loops of ``reference_multiindex.py`` on all 65,536 mask pairs,
and the grouped tensor kernels (``wedge``, ``contract``, ``inner``,
``hodge``, ``exterior_derivative``, ``pullback_linear``) with the pair loops
of ``reference_tensor.py``, on operands whose products cancel.
``canonicalize`` (one walk over ``PARITY``) is compared with the insertion
sort of ``reference_multiindex.py`` on every sequence of length 0..4 and on
every table entry it can read, and the linear sums (the ``GradedTensor``
constructor, ``+``, ``-`` and ``document_to_tensor``) with the
one-term-at-a-time ``_accumulate`` of ``reference_tensor.py``.
``Polynomial.linear_sum`` is compared with a ``Fraction`` accumulation on
factors far past a machine word and wide denominators, and ``+``, ``-``
and ``apply_matrix`` with the grouped ``sum_of_products`` bodies they ran
before, in ``reference_tensor.py``.  ``quadratic_form`` (t^T (m^T m) t
through the cached Gram matrix) is compared with the sum of the squares of
the dense-row image, and the norms of the reports of ``project2``,
``project3`` and ``project4``, which read each recorded part through its
source, with ``inner(part, part)``, asked before and after the
orthogonality residuals.  ``Polynomial.sum_of_derivatives``
(``diff`` is one triple of it) is compared with sums of the reference
polynomial's ``diff``, cancelling ones included, and ``exterior_derivative``
(one such sum per output key) with the path it replaced in
``reference_calculus.py``: one ``diff`` per (term, variable), each reduced
on its own, then one ``linear_sum`` per key, on forms of every degree with
coefficients over the denominators 1, 2, 3 and 6.
``json_text`` on values holding tensors and polynomials is compared with
``json.dumps(indent=2)`` of their plain documents, and must format each
distinct monomial once per indent and call, and the loader's
guarded walk with the located parse of ``reference_serialize.py``, through
the references of ``documents.py``; its guard must take exactly the
coefficient lists that the one-pass path before it took.
"""

import json
import re
import sys
import warnings
from fractions import Fraction
from itertools import product
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_calculus
import reference_linalg
import reference_multiindex
import reference_serialize
import reference_spin7
import reference_tensor
from documents import as_documents, json_values, load_outcome, located_outcome, near_valid_documents
from reference_polynomial import Polynomial as Reference

from cayley8.calculus import exterior_derivative, homotopy_primitive, lie_derivative_multivector, schouten
from cayley8.linalg import ExactMatrix, SingularMatrixError, _reduced
from cayley8.multiindex import DIM, INDEX, MASK, PARITY, basis, canonicalize, contraction, merge_sign, star_sign
from cayley8.polynomial import MAX_EXPONENT, ONE, ExponentOverflow, Polynomial, x
from cayley8 import serialize
from cayley8.serialize import ParseError, document_to_polynomial, document_to_tensor, json_text, polynomial_to_document
from cayley8.spin7 import (
    DecompositionReport, cayley_form, eigenspace_dimension, map_matrix, project2, project3, project4, psi2_inverse, psi3_section,
    structure_matrix, three_form_operator, three_form_operator_matrix, two_form_operator, two_form_operator_matrix,
)
from cayley8.tensor import (
    FORM, MULTIVECTOR, GradedTensor, apply_matrix, contract, dx, hodge, inner, pullback_linear, quadratic_form, sharp,
    wedge,
)

# -- polynomials ----------------------------------------------------------------

small_exponents = st.tuples(*[st.integers(0, 3) for _ in range(DIM)])
# fields up to half the cap, so a product of two stays below it
wide_exponents = st.tuples(*[st.integers(0, MAX_EXPONENT // 2) for _ in range(DIM)])
exponents = st.one_of(small_exponents, wide_exponents)
narrow = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 3))
wide = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6))
coefficients = st.one_of(narrow, wide)
term_dicts = st.dictionaries(exponents, coefficients, max_size=6)
scalars = st.one_of(st.integers(-(10**6), 10**6), coefficients)
points = st.lists(coefficients, min_size=DIM, max_size=DIM)


def pair(terms):
    return Polynomial(terms), Reference(terms)


def assert_same(new: Polynomial, ref: Reference) -> None:
    """Equal coefficients, term order, repr and canonical fields."""
    assert dict(new.terms) == ref.terms
    assert sorted(new.terms) == sorted(ref.terms)
    assert repr(new) == repr(ref)
    assert new.abs_coeff_sum() == ref.abs_coeff_sum()
    nums, den = new._nums, new._den
    assert den > 0 and 0 not in nums.values()
    assert gcd(den, *nums.values()) == 1
    assert nums or den == 1


@settings(max_examples=150, deadline=None)
@given(term_dicts, term_dicts, scalars)
def test_ring_operations_match_reference(a_terms, b_terms, c):
    a, ra = pair(a_terms)
    b, rb = pair(b_terms)
    assert_same(a, ra)
    assert_same(a + b, ra + rb)
    assert_same(a - b, ra - rb)
    assert_same(a * b, ra * rb)
    assert_same(a * c, ra * c)
    assert_same(c * a, c * ra)
    assert_same(a + c, ra + c)
    assert_same(-a, -ra)
    assert (a == b) == (ra == rb)
    assert (a == c) == (ra == c)


@settings(max_examples=100, deadline=None)
@given(term_dicts, term_dicts)
def test_cancellation_gives_canonical_zero(a_terms, b_terms):
    a, ra = pair(a_terms)
    b, rb = pair(b_terms)
    assert_same(a + (-a), ra + (-ra))
    assert (a + (-a)) == Polynomial.zero() == 0
    assert_same(a - a, ra - ra)
    assert_same(a * 0, ra * 0)
    # the cross terms a*b and -b*a cancel inside one product
    assert_same((a + b) * (a - b), (ra + rb) * (ra - rb))


@settings(max_examples=100, deadline=None)
@given(term_dicts, st.lists(exponents, max_size=3))
def test_calculus_and_inspection_match_reference(terms, probes):
    a, ra = pair(terms)
    for i in range(DIM):
        assert_same(a.diff(i), ra.diff(i))
    for exp in list(terms) + probes:
        assert a.coefficient(exp) == ra.coefficient(exp)
    assert a.is_constant() == ra.is_constant()
    if a.is_constant():
        assert a.constant_value() == ra.constant_value()


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(small_exponents, coefficients, max_size=4), points)
def test_evaluate_matches_reference(terms, point):
    a, ra = pair(terms)
    assert a.evaluate(point) == ra.evaluate(point)


@st.composite
def sparse_rows(draw):
    rows = [[Fraction(0)] * DIM for _ in range(DIM)]
    for i, j, v in draw(st.lists(st.tuples(st.integers(0, DIM - 1), st.integers(0, DIM - 1), narrow), max_size=12)):
        rows[i][j] = v
    return rows


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.tuples(*[st.integers(0, 2) for _ in range(DIM)]), coefficients, max_size=3), sparse_rows())
def test_compose_linear_matches_reference(terms, rows):
    a, ra = pair(terms)
    images = [sum((r * x(j) for j, r in enumerate(row)), Polynomial.zero()) for row in rows]
    assert_same(a.compose(images), ra.compose_linear(rows))


# polynomials of degree at most 2 in each variable, so a substitution stays small
low_polynomials = st.dictionaries(st.tuples(*[st.integers(0, 2) for _ in range(DIM)]), coefficients, max_size=3).map(Polynomial)


@settings(max_examples=40, deadline=None)
@given(low_polynomials, st.lists(low_polynomials, min_size=DIM, max_size=DIM), st.randoms(use_true_random=False))
def test_compose_evaluates_as_substitution(p, images, rnd):
    composed = p.compose(images)
    for _ in range(3):
        point = [Fraction(rnd.randint(-9, 9), rnd.randint(1, 5)) for _ in range(DIM)]
        assert composed.evaluate(point) == p.evaluate([g.evaluate(point) for g in images])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(exponents, st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6).filter(bool)), max_size=6))
def test_from_quotients_matches_reference(quotients):
    expected = Reference({})
    for exp, num, den in quotients:
        expected = expected + Reference({exp: Fraction(num, den)})
    assert_same(Polynomial.from_quotients(quotients), expected)
    assert Polynomial.from_quotients(quotients).quotients() == [
        (exp, c.numerator, c.denominator) for exp, c in sorted(expected.terms.items())
    ]


def test_ring_operations_build_no_fraction(monkeypatch):
    a = Polynomial({(1,) + (0,) * 7: Fraction(1, 3), (0,) * 8: Fraction(-2, 5)})
    b = Polynomial({(0, 1) + (0,) * 6: Fraction(3, 4), (2,) + (0,) * 7: 5})
    c = Fraction(2, 7)
    s = dx(0, coeff=a) + dx(1, coeff=b)
    t = dx(0, 1, coeff=b) + dx(1, 2, coeff=a) + dx(0, 2, coeff=c)
    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    results = [a * b, a * c, a * 3, c * a, a + b, a + 2, a + c, a - b, -a]
    results += [a.diff(i) for i in range(DIM)]
    results += [Polynomial.sum_of_products([(1, a, b), (-3, b, a), (2, a, a)])]
    products = [wedge(s, t), wedge(s, s), contract(sharp(s), t), contract(sharp(t), t)]
    results += [inner(s, s), inner(t, t)]
    assert built == []
    monkeypatch.undo()
    assert dict(results[0].terms) == (Reference(dict(a.terms)) * Reference(dict(b.terms))).terms
    assert products[0] == reference_tensor.wedge(s, t) and products[1].is_zero()
    assert products[2] == reference_tensor.contract(sharp(s), t)
    assert results[-1] == reference_tensor.inner(t, t) == a * a + b * b + c * c


def test_sum_of_products_cancels_to_the_canonical_zero():
    third = Polynomial.from_quotients([((1,) + (0,) * 7, 1, 3)])
    half = Polynomial.from_quotients([((0, 1) + (0,) * 6, 1, 2)])
    sixth = Polynomial.from_quotients([((1,) + (0,) * 7, 1, 6)])
    total = Polynomial.sum_of_products([(1, third, half), (-1, sixth, x(1))])
    assert (total._nums, total._den) == ({}, 1)
    assert Polynomial.sum_of_products([]) == Polynomial.zero()
    # what is left after the cancellation is reduced by one gcd
    total = Polynomial.sum_of_products([(1, third, half), (-1, sixth, x(1)), (6, sixth, half)])
    assert (total._nums, total._den) == ({1 << 112 | 1 << 96: 1}, 2)


# constant factors take the scaled-copy branch of sum_of_products
constant_dicts = coefficients.map(lambda c: {(0,) * DIM: c})
factors = st.one_of(term_dicts, constant_dicts)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), factors, factors), max_size=5), st.booleans())
def test_sum_of_products_matches_reference(triples, cancel):
    if cancel:  # every product also enters with the opposite sign
        triples = triples + [(-sign, a, b) for sign, a, b in reversed(triples)]
    expected = Reference({})
    for sign, a, b in triples:
        expected = expected + Reference(a) * Reference(b) * sign
    assert_same(Polynomial.sum_of_products([(sign, Polynomial(a), Polynomial(b)) for sign, a, b in triples]), expected)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), factors, factors), max_size=4), st.integers(1, 12))
def test_sum_of_products_over_a_denominator_matches_reference(triples, den):
    # a lone triple with a constant factor takes the scaled-copy branch, which divides by den too
    expected = Reference({})
    for sign, a, b in triples:
        expected = expected + Reference(a) * Reference(b) * Fraction(sign, den)
    polys = [(sign, Polynomial(a), Polynomial(b)) for sign, a, b in triples]
    assert_same(Polynomial.sum_of_products(polys, den), expected)


def test_exponent_cap():
    top = Polynomial.variable(3, MAX_EXPONENT)
    assert top.coefficient((0, 0, 0, MAX_EXPONENT, 0, 0, 0, 0)) == 1
    half = Polynomial.variable(3, MAX_EXPONENT // 2)
    assert sorted((half * Polynomial.variable(3, MAX_EXPONENT - MAX_EXPONENT // 2)).terms) == sorted(top.terms)
    with pytest.raises(ExponentOverflow):
        top * Polynomial.variable(3)
    with pytest.raises(ExponentOverflow):
        Polynomial.variable(0, MAX_EXPONENT + 1)
    with pytest.raises(ExponentOverflow):
        Polynomial({(0,) * (DIM - 1) + (MAX_EXPONENT + 1,): 1})
    # the guard bit of one field never leaks into its neighbours
    lower = Polynomial.variable(4, MAX_EXPONENT) * Polynomial.variable(3)
    assert sorted(lower.terms) == [(0, 0, 0, 1, MAX_EXPONENT, 0, 0, 0)]
    # the grouped tensor kernel checks the guard bits of every product it sums
    with pytest.raises(ExponentOverflow):
        wedge(dx(0, coeff=x(3) ** MAX_EXPONENT), dx(1, coeff=x(3)))
    with pytest.raises(ExponentOverflow):  # also when the overflowing products cancel
        Polynomial.sum_of_products([(1, top, x(3)), (-1, top, x(3))])
    # a constant factor scales a capped monomial without raising, on either side
    three = Polynomial.constant(3)
    scaled = Polynomial.sum_of_products([(1, top, three), (2, Polynomial.constant(Fraction(1, 2)), top), (-1, ONE, top)])
    assert scaled == top * 3
    assert top * three == three * top == top * 3
    # beside such a copy, a product past the cap still raises
    with pytest.raises(ExponentOverflow):
        Polynomial.sum_of_products([(1, top, three), (1, x(3), top)])


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(small_exponents, coefficients, max_size=3), st.integers(0, 9))
def test_power_matches_repeated_multiplication(terms, n):
    a, ra = pair(terms)
    assert_same(a**n, ra**n)


# -- squares: a (sign, p, p) triple takes each cross pair of terms once, doubled


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), factors, factors, st.booleans()), max_size=5))
def test_sum_of_products_with_squares_matches_reference(rows):
    triples, expected = [], Reference({})
    for sign, a, b, square in rows:
        if square:  # one object as both factors
            b = a
            pa = pb = Polynomial(a)
        else:
            pa, pb = Polynomial(a), Polynomial(b)
        triples.append((sign, pa, pb))
        expected = expected + Reference(a) * Reference(b) * sign
    assert_same(Polynomial.sum_of_products(triples), expected)


@settings(max_examples=100, deadline=None)
@given(term_dicts, st.integers(-3, 3))
def test_squares_match_reference(terms, sign):
    # powers square too: test_power_matches_repeated_multiplication covers p ** n
    a, ra = pair(terms)
    assert_same(a * a, ra * ra)
    assert_same(Polynomial.sum_of_products([(sign, a, a)]), ra * ra * sign)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, DIM).flatmap(lambda k: st.tuples(tensors(FORM, k, max_terms=5), tensors(MULTIVECTOR, k, max_terms=5))))
def test_inner_square_matches_reference(pair_of_tensors):
    for t in pair_of_tensors:
        expected = Reference({})
        for poly in t.terms.values():
            expected = expected + Reference(dict(poly.terms)) * Reference(dict(poly.terms))
        assert_same(inner(t, t), expected)


def test_square_exponent_cap():
    half = MAX_EXPONENT // 2 + 1  # 16384: its square has a field of 32768
    with pytest.raises(ExponentOverflow):
        Polynomial.variable(0, half) * Polynomial.variable(0, half)
    big = Polynomial.variable(0, half)
    with pytest.raises(ExponentOverflow):
        big * big
    with pytest.raises(ExponentOverflow):
        (big + x(1)) ** 2
    with pytest.raises(ExponentOverflow):
        inner(dx(0, coeff=big + x(1)), dx(0, coeff=big + x(1)))
    below = Polynomial.variable(0, half - 1)
    assert below * below == Polynomial.variable(0, MAX_EXPONENT - 1)
    assert dict(((below + x(1)) ** 2).terms) == {
        (MAX_EXPONENT - 1,) + (0,) * 7: 1, (half - 1, 1) + (0,) * 6: 2, (0, 2) + (0,) * 6: 1,
    }


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(MAX_EXPONENT // 2 - 300, MAX_EXPONENT // 2 + 300), min_size=1, max_size=4, unique=True))
def test_square_raises_exactly_when_the_product_of_a_copy_does(powers):
    """A cross field s + t is at most 2 max(s, t): the square's guard check misses no overflow."""
    p = Polynomial.sum_of_products([(1, Polynomial.variable(0, e), ONE) for e in powers])
    copy = p + 0  # equal fields, another object: the general product loop
    assert copy is not p and copy == p
    try:
        expected = p * copy
    except ExponentOverflow:
        with pytest.raises(ExponentOverflow):
            p * p
    else:
        assert_same(p * p, Reference(dict(expected.terms)))


# -- matrices ----------------------------------------------------------------

entries = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))


@st.composite
def sparse_matrices(draw, nrows=None, ncols=None):
    nrows = nrows or draw(st.integers(1, 56))
    ncols = ncols or draw(st.integers(1, 56))
    rows = [[Fraction(0)] * ncols for _ in range(nrows)]
    cells = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1), entries)
    count = draw(st.integers(0, 2 * max(nrows, ncols)))
    for i, j, v in draw(st.lists(cells, min_size=count, max_size=count)):
        rows[i][j] = v
    if nrows == ncols and draw(st.booleans()):
        for i in range(nrows):  # a nonzero diagonal: often, not always, invertible
            rows[i][i] = draw(entries)
    return rows


def assert_fraction_rows(rows) -> None:
    assert all(type(v) is Fraction for row in rows for v in row)


@settings(max_examples=40, deadline=None)
@given(sparse_matrices(), st.data())
def test_matrix_kernels_match_dense_reference(rows, data):
    m = ExactMatrix(rows)
    reduced, pivots = m.rref()
    assert (reduced.rows, pivots) == reference_linalg.rref(rows)
    assert_fraction_rows(reduced.rows)
    assert m.rref() is m.rref()
    assert m.rank() == len(pivots)
    # stacked on the identity, every matrix has full column rank: an ncols x 0 kernel
    stacked = rows + [[Fraction(int(i == j)) for j in range(m.ncols)] for i in range(m.ncols)]
    for matrix, dense in ((m, rows), (ExactMatrix(stacked), stacked)):
        kernel = matrix.nullspace()
        expected = reference_linalg.nullspace(dense)
        assert kernel.shape == (matrix.ncols, len(expected))
        assert kernel.transpose().rows == expected
        assert_fraction_rows(kernel.rows)
        assert (matrix @ kernel).abs_entry_sum() == 0
        assert kernel.column_span_equals(ExactMatrix([[0]] * matrix.ncols)) == (not expected)
        assert kernel.column_span_equals(kernel * 3)
    assert ExactMatrix(stacked).nullity() == 0
    right = data.draw(sparse_matrices(nrows=m.ncols))
    matrix_product = (m @ ExactMatrix(right)).rows
    assert matrix_product == reference_linalg.matmul(rows, right)
    assert_fraction_rows(matrix_product)
    # entrywise kernels, against one Fraction operation per entry
    other = data.draw(sparse_matrices(nrows=m.nrows, ncols=m.ncols))
    scalar = data.draw(st.sampled_from([Fraction(0), Fraction(1)]) | entries)
    entrywise = {
        "+": ((m + ExactMatrix(other)).rows, [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(rows, other)]),
        "-": ((m - ExactMatrix(other)).rows, [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(rows, other)]),
        "*": ((m * scalar).rows, [[scalar * a for a in row] for row in rows]),
        "r*": ((scalar * m).rows, [[a * scalar for a in row] for row in rows]),
        "self - self": ((m - m).rows, [[Fraction(0)] * m.ncols for _ in rows]),
    }
    for name, (got, expected) in entrywise.items():
        assert got == expected, name
        assert_fraction_rows(got)
    columns = [list(col) for col in zip(*rows)]
    assert m.transpose().rows == columns
    assert_fraction_rows(m.transpose().rows)
    assert (m == ExactMatrix(other)) == (rows == other)
    assert m == ExactMatrix([[v * 1 for v in row] for row in rows]) == m * 1
    assert m == ExactMatrix(zip(*columns, strict=True))
    assert m.abs_entry_sum() == sum((abs(v) for row in rows for v in row), Fraction(0))
    joined = [ra + rb for ra, rb in zip(rows, other)]
    same_span = len(reference_linalg.rref(rows)[1]) == len(reference_linalg.rref(other)[1]) == len(
        reference_linalg.rref(joined)[1]
    )
    assert m.column_span_equals(ExactMatrix(other)) == same_span
    assert m.column_span_equals(m * (abs(scalar) + 1))  # a nonzero multiple spans the same columns
    if m.nrows != m.ncols:
        with pytest.raises(ValueError):
            eigenspace_dimension(m, 0)
        return
    assert m.trace() == sum((row[i] for i, row in enumerate(rows)), Fraction(0))
    assert type(m.trace()) is Fraction
    diagonal = [row[i] for i, row in enumerate(rows)]
    for ev in (0, data.draw(st.sampled_from(diagonal)), data.draw(entries)):
        shifted = [[v - ev * (i == j) for j, v in enumerate(row)] for i, row in enumerate(rows)]
        assert eigenspace_dimension(m, ev) == m.ncols - len(reference_linalg.rref(shifted)[1])
    assert m.rows == rows  # the shift works on a copy


def test_matrix_kernels_build_no_fraction(monkeypatch):
    matrices = [map_matrix(k) for k in (1, 2, 3)] + [two_form_operator_matrix(), three_form_operator_matrix()]
    t_matrix, s_matrix = matrices[3:]
    images = [two_form_operator(dx(*idx)) for idx in basis(2)]
    wedge_images = [wedge(dx(*idx), cayley_form()) for idx in basis(3)]
    halves = t_matrix * Fraction(1, 2)  # a denominator the shift must scale
    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    fresh = [m * 1 for m in matrices]  # equal matrices with no cached elimination
    ranks = [m.rank() for m in fresh]
    nullities = [m.nullity() for m in fresh]
    spectra = [eigenspace_dimension(t_matrix, -3), eigenspace_dimension(t_matrix, 1)]
    spectra += [eigenspace_dimension(s_matrix, -7), eigenspace_dimension(s_matrix, 0)]
    int_shifts = [halves.shifted(3), halves.shifted(-1), s_matrix.shifted(-7)]
    residuals = [
        t_matrix @ t_matrix + t_matrix * 2 - ExactMatrix.identity(28) * 3,
        s_matrix @ s_matrix + s_matrix * 7,
        map_matrix(3) @ map_matrix(1) + ExactMatrix.identity(8) * 7,
    ]
    equal = [a == b for a, b in zip(fresh, matrices)]
    equal += [structure_matrix(images, 2) == t_matrix, map_matrix(2) == t_matrix, t_matrix * -1 == t_matrix]
    fresh = [m * 1 for m in matrices]
    reduced = [m.rref()[0] for m in fresh]
    kernels = [m.nullspace() for m in fresh]
    inverses = [fresh[1].inverse(), fresh[3].inverse()]
    spans = [
        kernels[2].column_span_equals(structure_matrix(wedge_images, 7).nullspace()),
        kernels[2].column_span_equals(kernels[4]),  # both are the 48-dimensional part
        kernels[2].column_span_equals(reduced[4]),
        reduced[1].column_span_equals(ExactMatrix.identity(28)),
    ]
    assert built == []
    monkeypatch.undo()
    assert [r.rank() for r in reduced] == [8, 28, 8, 28, 8]
    assert [k.shape for k in kernels] == [(8, 0), (28, 0), (56, 48), (28, 0), (56, 48)]
    assert [(m @ k).abs_entry_sum() for m, k in zip(matrices, kernels)] == [0] * 5
    assert [inverses[0] @ matrices[1], inverses[1] @ matrices[3]] == [ExactMatrix.identity(28)] * 2
    assert spans == [True, True, False, True]
    assert ranks == [8, 28, 8, 28, 8]
    assert nullities == [0, 0, 48, 0, 48]
    assert spectra == [7, 21, 8, 48]
    assert [r.abs_entry_sum() for r in residuals] == [0, 0, 0]
    assert equal == [True] * 7 + [False]
    assert int_shifts == [
        halves - ExactMatrix.identity(28) * 3,
        halves + ExactMatrix.identity(28),
        s_matrix + ExactMatrix.identity(56) * 7,
    ]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 56).flatmap(lambda n: sparse_matrices(nrows=n, ncols=n)))
def test_inverse_matches_dense_reference(rows):
    try:
        expected = reference_linalg.inverse(rows)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            ExactMatrix(rows).inverse()
    else:
        assert ExactMatrix(rows).inverse().rows == expected


def assert_eliminates_as_gauss_jordan(m: ExactMatrix) -> None:
    """Forward pass plus back-substitution against the one-loop Gauss-Jordan, field by field.

    Two fresh copies take the stages in either order: ``rank`` first (the
    forward pass alone, then ``rref`` on top of it) and ``rref`` first.  The
    echelon form itself must be row-equivalent to ``m``, each row zero left
    of its pivot, with a positive pivot entry.
    """
    reduced, pivots = reference_linalg.gauss_jordan(m)
    rank_first, rref_first = m * 1, m * 1
    assert rank_first.rank() == len(pivots)
    assert rank_first._rref is None  # the rank read the forward pass alone
    for fresh in (rank_first, rref_first):
        got, got_pivots = fresh.rref()
        assert (got._nums, got._den, got_pivots) == (reduced._nums, reduced._den, pivots)
        assert fresh.rank() == len(fresh.rref()[1]) == len(pivots)
        assert fresh.nullity() == m.ncols - len(pivots)
    echelon, echelon_pivots = rank_first._forward()
    assert echelon_pivots == pivots
    for row, c in zip(echelon, pivots):
        assert min(row) == c and row[c] > 0
    padded = echelon + [{} for _ in range(m.nrows - len(pivots))]
    again, again_pivots = reference_linalg.gauss_jordan(_reduced(padded, 1, m.ncols))
    assert (again._nums, again._den, again_pivots) == (reduced._nums, reduced._den, pivots)


@st.composite
def eliminable_matrices(draw):
    """Sparse matrices, tall or wide, with duplicated, combined and zero rows slipped in."""
    rows = draw(sparse_matrices(nrows=draw(st.integers(1, 24)), ncols=draw(st.integers(1, 24))))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["duplicate", "combine", "zero"]))
        p, q = (rows[draw(st.integers(0, len(rows) - 1))] for _ in range(2))
        if kind == "duplicate":
            new = p[:]
        elif kind == "combine":
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            new = [a * u + b * v for u, v in zip(p, q)]
        else:
            new = [Fraction(0)] * len(p)
        rows.insert(draw(st.integers(0, len(rows))), new)
    return rows


@settings(max_examples=150, deadline=None)
@given(eliminable_matrices())
def test_elimination_matches_gauss_jordan(rows):
    assert_eliminates_as_gauss_jordan(ExactMatrix(rows))


def test_elimination_of_the_structure_maps_matches_gauss_jordan():
    t_matrix, s_matrix = two_form_operator_matrix(), three_form_operator_matrix()
    shifted = [m - ExactMatrix.identity(m.nrows) * ev for m, ev in ((s_matrix, -7), (s_matrix, 0), (t_matrix, -3), (t_matrix, 1))]
    n = map_matrix(2)
    augmented = _reduced([{**row, 28 + i: 1} for i, row in enumerate(n._nums)], 1, 56)  # [N | I], as inverse builds it
    zero = ExactMatrix([[0] * 5] * 3)
    negative = ExactMatrix([[0, -2, 4, Fraction(2, 3)], [-3, 6, 0, 1], [3, -8, 4, 0], [0, 0, 0, 0]])
    for m in [map_matrix(k) for k in (1, 2, 3)] + [t_matrix, s_matrix] + shifted + [augmented, zero, negative]:
        assert_eliminates_as_gauss_jordan(m)
    assert [m.rank() for m in shifted] == [48, 56 - 48, 28 - 7, 28 - 21]


def assert_forward_as_reference(m: ExactMatrix) -> None:
    """The bucketed forward pass against the one-scan-per-column pass it replaced, field by field."""
    expected = reference_linalg.forward_pass(m)
    fresh = m * 1  # an equal matrix with no cached elimination
    assert fresh._forward() == expected
    assert m._forward() == expected


@settings(max_examples=150, deadline=None)
@given(eliminable_matrices())
def test_forward_pass_matches_reference(rows):
    assert_forward_as_reference(ExactMatrix(rows))


@st.composite
def interleaved_direct_sums(draw):
    """Direct sums of 2-4 sparse blocks, their rows shuffled together."""
    blocks = [
        draw(sparse_matrices(nrows=draw(st.integers(1, 8)), ncols=draw(st.integers(1, 8))))
        for _ in range(draw(st.integers(2, 4)))
    ]
    ncols = sum(len(block[0]) for block in blocks)
    rows, offset = [], 0
    for block in blocks:
        width = len(block[0])
        rows += [[Fraction(0)] * offset + row + [Fraction(0)] * (ncols - offset - width) for row in block]
        offset += width
    return [rows[i] for i in draw(st.permutations(range(len(rows))))]


@settings(max_examples=100, deadline=None)
@given(interleaved_direct_sums())
def test_forward_pass_of_direct_sums_matches_reference(rows):
    assert_forward_as_reference(ExactMatrix(rows))


@pytest.mark.parametrize("eigenvalue", [-7, -3, 0, 1, 2])
def test_forward_pass_of_shifted_operators_matches_reference(eigenvalue):
    # S - lambda I is 8 blocks of 7 and T - lambda I 7 blocks of 4, up to the order of the basis
    for m in (three_form_operator_matrix(), two_form_operator_matrix()):
        assert_forward_as_reference(m - ExactMatrix.identity(m.nrows) * eigenvalue)


@st.composite
def shifts(draw):
    """A square sparse matrix over a denominator > 1 and a shift: an int, a ``Fraction`` or a diagonal entry."""
    n = draw(st.integers(1, 24))
    rows = draw(sparse_matrices(nrows=n, ncols=n))
    # one entry +-1/q, q > 1, so the shared denominator is a multiple of q
    i, j, q = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(st.integers(2, 9))
    rows[i][j] = Fraction(draw(st.sampled_from([-1, 1])), q)
    diagonal = [row[i] for i, row in enumerate(rows)]
    value = draw(st.integers(-9, 9) | entries | st.sampled_from(diagonal))
    return rows, value


@settings(max_examples=100, deadline=None)
@given(shifts())
def test_shifted_matches_identity_arithmetic(case):
    rows, value = case
    m = ExactMatrix(rows)
    assert m._den > 1
    assert m.shifted(value) == m - ExactMatrix.identity(m.nrows) * value
    assert m.rows == rows  # the shift works on a copy
    assert m.shifted(0) is m


# -- the Lambda^4_7 projection ---------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from(basis(4)), term_dicts, max_size=8))
def test_seven_part_matches_gram_projector(coefficients):
    sigma = GradedTensor(FORM, 4, {idx: Polynomial(terms) for idx, terms in coefficients.items()})
    report = project4(sigma)
    expected = reference_spin7.seven_part(sigma)
    assert report.components["4_7"] == expected
    assert report.components["4_27"] == sigma - report.components["4_1"] - expected - report.components["4_35"]


# -- the Spin(7) operators as cached matrices ------------------------------------


def polynomial_forms(degree, max_terms=6):
    """Forms of one degree, zero included, with wide polynomial coefficients."""
    terms = st.dictionaries(st.sampled_from(basis(degree)), term_dicts, max_size=min(max_terms, len(basis(degree))))
    return terms.map(lambda t: GradedTensor(FORM, degree, {idx: Polynomial(c) for idx, c in t.items()}))


@settings(max_examples=60, deadline=None)
@given(polynomial_forms(2), polynomial_forms(3), polynomial_forms(1))
def test_field_operators_match_kernel_bodies(beta, eta, alpha):
    assert_same_tensor(two_form_operator(beta), reference_spin7.two_form_operator(beta))
    assert_same_tensor(three_form_operator(eta), reference_spin7.three_form_operator(eta))
    assert_same_tensor(psi2_inverse(beta), reference_spin7.psi2_inverse(beta))
    assert_same_tensor(psi3_section(alpha), reference_spin7.psi3_section(alpha))


def assert_section_matches_scaled_matrix(alpha):
    """psi3_section(alpha) against the section as one matrix, -1/7 ``map_matrix(1)``, terms in stored order."""
    new = psi3_section(alpha)
    ref = apply_matrix(map_matrix(1) * Fraction(-1, 7), alpha, 3, MULTIVECTOR)
    assert_same_tensor(new, ref)
    assert list(new.terms) == list(ref.terms)


@pytest.mark.parametrize("i", range(DIM))
def test_section_of_coordinate_one_form_matches_scaled_matrix(i):
    assert_section_matches_scaled_matrix(dx(i))


@settings(max_examples=60, deadline=None)
@given(polynomial_forms(1))
def test_section_matches_scaled_matrix(alpha):
    # psi3_section scales the 8 coefficients of alpha, not the 56x8 matrix
    assert_section_matches_scaled_matrix(alpha)


def pairings_of(parts):
    """The direct pairing of each pair of parts, as ``"a|b"`` with a < b."""
    names = sorted(parts)
    return {f"{a}|{b}": inner(parts[a], parts[b]) for i, a in enumerate(names) for b in names[i + 1 :]}


@pytest.mark.parametrize("degree", [2, 3, 4])
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_projections_match_kernel_bodies(degree, data):
    form = data.draw(polynomial_forms(degree))
    new = {2: project2, 3: project3, 4: project4}[degree](form)
    ref = {2: reference_spin7.project2, 3: reference_spin7.project3, 4: reference_spin7.project4}[degree](form)
    assert list(new.components) == list(ref.components)
    for name, part in ref.components.items():
        assert_same_tensor(new.components[name], part)
    # the residuals vanish on the split itself, so compare them on arbitrary components too
    arbitrary = DecompositionReport(form, {name: data.draw(polynomial_forms(degree)) for name in ref.components})
    for report in (new, arbitrary):
        residuals = report.defining_residuals()
        expected = reference_spin7.defining_residuals(report)
        assert sorted(residuals) == sorted(expected)
        for name, value in expected.items():
            assert type(residuals[name]) is type(value) and residuals[name] == value
    # norms and orthogonality residuals share one memo of pairings, and with a zero "sum" residual a
    # pairing with the remainder is read through the input: whichever is asked first, on the split, on
    # arbitrary parts and on arbitrary parts that sum to the input, both equal the direct pairings
    rest = {2: "2_21", 3: "3_48", 4: "4_27"}[degree]
    summing = {name: part for name, part in arbitrary.components.items() if name != rest}
    summing[rest] = form - sum(summing.values(), GradedTensor.zero(FORM, degree))
    for parts in (new.components, arbitrary.components, summing):
        norms, pairings = {name: inner(part, part) for name, part in parts.items()}, pairings_of(parts)
        for norms_first in (True, False):
            report = DecompositionReport(form, dict(parts))
            if norms_first:
                assert list(report.norms().items()) == list(norms.items())
            assert list(report.orthogonality_residuals().items()) == list(pairings.items())
            assert list(report.norms().items()) == list(norms.items())
            assert list(report.orthogonality_residuals().items()) == list(pairings.items())
    # the projection's own report also reads each recorded part's norm through its source, s^T (m^T m) s:
    # a fresh report per order, asked its norms before and after its orthogonality residuals
    norms, pairings = {name: inner(part, part) for name, part in new.components.items()}, pairings_of(new.components)
    for norms_first in (True, False):
        report = {2: project2, 3: project3, 4: project4}[degree](form)
        assert report._images
        if not norms_first:
            assert list(report.orthogonality_residuals().items()) == list(pairings.items())
        assert list(report.norms().items()) == list(norms.items())
        assert list(report.orthogonality_residuals().items()) == list(pairings.items())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, DIM), st.integers(0, DIM), st.data())
def test_apply_matrix_matches_dense_rows(source, target, data):
    matrix = ExactMatrix(data.draw(sparse_matrices(len(basis(target)), len(basis(source)))))
    t = data.draw(polynomial_forms(source))
    for variance in (FORM, MULTIVECTOR):
        expected = reference_spin7.apply_matrix(matrix, t, target, variance)
        assert_same_tensor(apply_matrix(matrix, t, target, variance), expected)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, DIM), st.integers(0, DIM), st.data())
def test_quadratic_form_matches_the_square_of_the_image(source, target, data):
    # t^T (m^T m) t against <m t, m t> of the dense-row image, on sparse matrices over wide denominators
    matrix = ExactMatrix(data.draw(sparse_matrices(len(basis(target)), len(basis(source)))))
    t = data.draw(polynomial_forms(source))
    image = reference_spin7.apply_matrix(matrix, t, target, FORM)
    squares = [Reference(dict(p.terms)) for p in image.terms.values()]
    assert_same(quadratic_form(matrix, t), sum((p * p for p in squares), Reference.zero()))


# -- calculus -------------------------------------------------------------------

low_exponents = st.tuples(*[st.integers(0, 2) for _ in range(DIM)])
low_polynomials = st.dictionaries(low_exponents, coefficients, min_size=1, max_size=3).map(Polynomial)


def tensors(variance, degree, max_terms=3):
    """Nonzero tensors of one degree with small polynomial coefficients."""
    keys = basis(degree)
    terms = st.dictionaries(st.sampled_from(keys), low_polynomials, min_size=1, max_size=min(max_terms, len(keys)))
    return terms.map(lambda t: GradedTensor(variance, degree, t))


def assert_same_tensor(new: GradedTensor, ref: GradedTensor) -> None:
    assert (new.variance, new.degree, new.terms) == (ref.variance, ref.degree, ref.terms)


@pytest.mark.parametrize("p", range(DIM + 1))
@settings(max_examples=6, deadline=None)
@given(st.data())
def test_schouten_matches_decomposable_expansion(p, data):
    a = data.draw(tensors(MULTIVECTOR, p))
    for q in range(DIM + 1):
        b = data.draw(tensors(MULTIVECTOR, q))
        for x, y in ((a, b), (GradedTensor.zero(MULTIVECTOR, p), b), (a, GradedTensor.zero(MULTIVECTOR, q))):
            assert_same_tensor(schouten(x, y), reference_calculus.schouten(x, y))


@settings(max_examples=20, deadline=None)
@given(tensors(MULTIVECTOR, 1, max_terms=4), st.data())
def test_multivector_lie_derivative_matches_slot_expansion(x, data):
    for q in range(DIM + 1):
        for t in (data.draw(tensors(MULTIVECTOR, q)), GradedTensor.zero(MULTIVECTOR, q)):
            assert_same_tensor(lie_derivative_multivector(x, t), reference_calculus.lie_derivative_multivector(x, t))


@pytest.mark.parametrize("k", range(1, DIM + 1))
@settings(max_examples=20, deadline=None)
@given(st.data())
def test_homotopy_primitive_matches_slot_expansion(k, data):
    for beta in (data.draw(tensors(FORM, k, max_terms=6)), GradedTensor.zero(FORM, k)):
        assert_same_tensor(homotopy_primitive(beta), reference_calculus.homotopy_primitive(beta))


def test_kernels_read_numerators_over_the_one_denominator(monkeypatch):
    """The cone primitive and ``structure_matrix`` read ``_nums`` over ``_den``: the writer's per-term quotients are not asked for."""
    beta = dx(0, 3, coeff=x(2) ** 2 * Fraction(3, 4) - x(0) * Fraction(5, 6)) + dx(2, 5, coeff=Fraction(7, 10))
    expected = reference_calculus.homotopy_primitive(beta)
    columns = [[Fraction(3, 4), 0, 0, 0, 0, Fraction(-2, 9), 0, 0], [0, 0, 0, Fraction(-7, 6), 0, 0, 0, 0]]

    def refuse(self):
        raise AssertionError("_packed_quotients serves the document writer only")

    monkeypatch.setattr(Polynomial, "_packed_quotients", refuse)
    assert_same_tensor(homotopy_primitive(beta), expected)
    images = [dx(0, coeff=Fraction(3, 4)) - dx(5, coeff=Fraction(2, 9)), dx(3, coeff=Fraction(-7, 6))]
    assert structure_matrix(images, 1) == ExactMatrix(zip(*columns, strict=True))


# -- signs and tensor kernels ------------------------------------------------------


def test_parity_table_matches_index_loops():
    assert type(PARITY) is bytes and len(PARITY) == 1 << 16
    for a in range(1 << DIM):
        ia = INDEX[a]
        assert MASK[ia] == a and sum(1 << i for i in ia) == a and list(ia) == sorted(set(ia))
        assert star_sign(ia) == reference_multiindex.star_sign(ia)
        for b in range(1 << DIM):
            ib = INDEX[b]
            assert PARITY[a << 8 | b] == sum(j < i for i in ia for j in ib) % 2
            assert merge_sign(ia, ib) == reference_multiindex.merge_sign(ia, ib)
            assert contraction(ia, ib) == reference_multiindex.contraction(ia, ib)


def rotated(t: GradedTensor) -> GradedTensor:
    """A partner whose pairing with ``t`` cancels: coefficients (f, g) on two keys become (g, -f)."""
    items = sorted(t.terms.items())
    out = {}
    for (k1, f), (k2, g) in zip(items[::2], items[1::2]):
        out[k1], out[k2] = g, -f
    return GradedTensor(t.variance, t.degree, out)


@pytest.mark.parametrize("p", range(DIM + 1))
@settings(max_examples=8, deadline=None)
@given(st.data())
def test_wedge_and_contract_match_pair_loops(p, data):
    a = data.draw(tensors(FORM, p))
    zero = a + (-a)
    for q in range(DIM + 1):
        b = data.draw(tensors(FORM, q))
        for u, v in ((a, b), (zero, b), (a, b + (-b))):
            assert_same_tensor(wedge(u, v), reference_tensor.wedge(u, v))
            assert_same_tensor(wedge(sharp(u), sharp(v)), reference_tensor.wedge(sharp(u), sharp(v)))
            if p <= q:
                assert_same_tensor(contract(sharp(u), v), reference_tensor.contract(sharp(u), v))
    # products that cancel inside one output key
    if p % 2:
        assert wedge(a, a).is_zero()
        assert_same_tensor(wedge(a, a), reference_tensor.wedge(a, a))
    partner = rotated(a)
    assert contract(sharp(a), partner).is_zero()
    assert_same_tensor(contract(sharp(a), partner), reference_tensor.contract(sharp(a), partner))


@pytest.mark.parametrize("p", range(DIM + 1))
@settings(max_examples=10, deadline=None)
@given(st.data())
def test_inner_hodge_and_d_match_pair_loops(p, data):
    a = data.draw(tensors(FORM, p, max_terms=6))
    b = data.draw(tensors(FORM, p, max_terms=6))
    for u, v in ((a, b), (a, a), (a, a + (-a)), (a, rotated(a))):
        new, ref = inner(u, v), reference_tensor.inner(u, v)
        assert (new._nums, new._den) == (ref._nums, ref._den)
    assert inner(a, rotated(a)).is_zero()
    for t in (a, sharp(a), a + (-a)):
        assert_same_tensor(hodge(t), reference_tensor.hodge(t))
    da = exterior_derivative(a)
    assert_same_tensor(da, reference_tensor.exterior_derivative(a))
    # d(d a) = 0: the mixed partials cancel inside each output key
    assert_same_tensor(exterior_derivative(da), reference_tensor.exterior_derivative(da))
    assert exterior_derivative(da).is_zero()


# coefficients of total degree at most 2, so that a substitution stays small
quadratic_exponents = st.lists(st.integers(0, DIM - 1), max_size=2).map(lambda v: tuple(v.count(i) for i in range(DIM)))
quadratic_polynomials = st.dictionaries(quadratic_exponents, coefficients, min_size=1, max_size=3).map(Polynomial)


@st.composite
def invertible_matrices(draw):
    """Triangular with a nonzero diagonal and sparse wide entries, rows maybe reversed."""
    rows = [[Fraction(0)] * DIM for _ in range(DIM)]
    for i in range(DIM):
        rows[i][i] = draw(coefficients.filter(bool))
        for j in range(i + 1, DIM):
            if draw(st.integers(0, 3)) == 0:
                rows[i][j] = draw(coefficients)
    return rows[::-1] if draw(st.booleans()) else rows


@pytest.mark.parametrize("p", range(DIM + 1))
@settings(max_examples=5, deadline=None)
@given(st.data())
def test_pullback_matches_pair_loops(p, data):
    keys = st.sampled_from(basis(p))
    terms = st.dictionaries(keys, quadratic_polynomials, min_size=1, max_size=min(3, len(basis(p))))
    matrix = data.draw(invertible_matrices())
    for variance in (FORM, MULTIVECTOR):
        t = GradedTensor(variance, p, data.draw(terms))
        for u in (t, t + (-t)):
            assert_same_tensor(pullback_linear(ExactMatrix(matrix), u), reference_tensor.pullback_linear(matrix, u))


# -- canonicalize and the linear sums ------------------------------------------------


def test_canonicalize_matches_insertion_sort_exhaustively():
    sequences = [seq for n in range(5) for seq in product(range(DIM), repeat=n)]
    assert len(sequences) == 4681
    # every PARITY entry canonicalize reads: index i after the indices of any mask
    sequences += [INDEX[m] + (i,) for m in range(1 << DIM) for i in range(DIM)]
    for seq in sequences:
        assert canonicalize(seq) == reference_multiindex.canonicalize(seq)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.integers(0, DIM - 1), max_size=8), st.permutations(range(DIM))))
def test_canonicalize_matches_insertion_sort(seq):
    assert canonicalize(seq) == reference_multiindex.canonicalize(seq)
    assert canonicalize(iter(seq)) == canonicalize(seq)


# zero and empty coefficients, rationals and polynomials with denominators up to 10**6
linear_coefficients = st.one_of(
    st.just(0), st.just(Polynomial()), coefficients, st.integers(-3, 3),
    st.dictionaries(low_exponents, coefficients, max_size=3).map(Polynomial),
)


@st.composite
def index_terms(draw, degree):
    """``(index sequence, coefficient)`` pairs: unsorted, repeated and cancelling keys."""
    sequence = st.lists(st.integers(0, DIM - 1), min_size=degree, max_size=degree).map(tuple)
    pairs = draw(st.lists(st.tuples(sequence, linear_coefficients), max_size=6))
    for key, coeff in list(pairs):
        if degree >= 2 and draw(st.booleans()):  # the odd transposition cancels key
            pairs.append(((key[1], key[0]) + key[2:], coeff))
        if draw(st.integers(0, 3)) == 0:  # the same key again
            pairs.append((key, draw(linear_coefficients)))
    return pairs


def assert_linear(new: GradedTensor, ref: GradedTensor) -> None:
    assert_same_tensor(new, ref)
    assert all(new.terms.values()), "a zero coefficient was stored"


def as_document(variance, degree, pairs):
    terms = [{"idx": list(k), "coeff": polynomial_to_document(Polynomial() + c)} for k, c in pairs]
    return {"variance": variance, "degree": degree, "terms": terms}


@pytest.mark.parametrize("degree", range(DIM + 1))
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_linear_sums_match_accumulate(degree, data):
    variance = data.draw(st.sampled_from([FORM, MULTIVECTOR]))
    pairs_a, pairs_b = data.draw(index_terms(degree)), data.draw(index_terms(degree))
    a = GradedTensor(variance, degree, dict(pairs_a))
    b = GradedTensor(variance, degree, dict(pairs_b))
    assert_linear(a, reference_tensor.construct(variance, degree, dict(pairs_a)))
    assert_linear(b, reference_tensor.construct(variance, degree, dict(pairs_b)))
    zero = GradedTensor.zero(variance, (degree + 3) % (DIM + 1))
    for u, v in ((a, b), (b, a), (a, a), (a, zero), (zero, a), (zero, zero)):
        assert_linear(u + v, reference_tensor.combine(u, v, 1))
        assert_linear(u - v, reference_tensor.combine(u, v, -1))
    # a key met once keeps its Polynomial
    assert all((a + zero).terms[k] is p for k, p in a.terms.items())
    doc = as_document(variance, degree, pairs_a + pairs_b)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a repeated index warns
        assert_linear(document_to_tensor(doc), reference_tensor.document_to_tensor(doc))


def test_linear_sums_cancel_duplicate_keys():
    p = Polynomial({(1, 0, 0, 0, 0, 0, 0, 0): Fraction(3, 10**6)})
    assert GradedTensor(FORM, 2, {(0, 1): p, (1, 0): p}).terms == {}
    assert GradedTensor(FORM, 2, {(1, 0): p}).terms == {(0, 1): -p}
    doc = as_document(FORM, 2, [((0, 1), p), ((1, 0), p), ((2, 3), 0), ((3, 2), p)])
    assert document_to_tensor(doc).terms == {(2, 3): -p}
    t = GradedTensor(FORM, 2, {(0, 1): p, (2, 3): 1})
    assert (t - t).terms == {} and (t - t).degree == 2
    assert (t - GradedTensor(FORM, 2, {(1, 0): p})).terms == {(0, 1): p * 2, (2, 3): 1}


# -- linear_sum, and the kernels that use it against their grouped bodies --------------

# integer factors from small to far past a machine word, and polynomials over wide denominators
scales = st.one_of(st.integers(-3, 3), st.integers(-(10**30), 10**30))
denominators = st.one_of(st.just(1), st.integers(1, 10**6))


def fraction_sum(pairs, den) -> dict:
    """``sum(c * p) / den`` accumulated one ``Fraction`` at a time, zeros dropped."""
    out: dict = {}
    for c, p in pairs:
        for exp, v in p.terms.items():
            out[exp] = out.get(exp, 0) + Fraction(c) * v / den
    return {exp: v for exp, v in out.items() if v}


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(scales, term_dicts.map(Polynomial)), min_size=1, max_size=5), denominators, st.booleans())
def test_linear_sum_matches_fraction_accumulation(pairs, den, cancel):
    if cancel:  # every pair also enters with the opposite factor
        pairs = pairs + [(-c, p) for c, p in pairs]
    total = Polynomial.linear_sum(pairs, den)
    assert_same(total, Reference(fraction_sum(pairs, den)))
    if cancel:
        assert (total._nums, total._den) == ({}, 1)
    c, p = pairs[0]
    assert_same(Polynomial.linear_sum([(c, p)], den), Reference(fraction_sum([(c, p)], den)))


def test_linear_sum_edge_cases():
    p = Polynomial({(1,) + (0,) * 7: Fraction(3, 10**6), (0,) * 8: -2})
    # a lone pair of factor +-1 over 1 is the polynomial or its negation; any other factor scales
    assert Polynomial.linear_sum([(1, p)]) is p
    assert Polynomial.linear_sum([(-1, p)]) == -p
    assert Polynomial.linear_sum([(3, p)]) == p * 3
    assert Polynomial.linear_sum([(-1, p)], 2) == p * Fraction(-1, 2)
    assert Polynomial.linear_sum([(0, p)]) == Polynomial.linear_sum([]) == Polynomial.zero()
    # a first pair of factor 1 is copied, not shared
    total = Polynomial.linear_sum([(1, p), (1, x(2))])
    assert total == p + x(2) and p == Polynomial({(1,) + (0,) * 7: Fraction(3, 10**6), (0,) * 8: -2})
    # what is left after a cancellation is reduced by one gcd
    third = Polynomial.from_quotients([((1,) + (0,) * 7, 1, 3), ((0, 1) + (0,) * 6, 1, 2)])
    total = Polynomial.linear_sum([(1, third), (-2, Polynomial.from_quotients([((1,) + (0,) * 7, 1, 6)]))], 5)
    assert (total._nums, total._den) == ({1 << 96: 1}, 10)


@pytest.mark.parametrize("p", range(DIM + 1))
@settings(max_examples=10, deadline=None)
@given(st.data())
def test_linear_kernels_match_grouped_bodies(p, data):
    a = data.draw(tensors(FORM, p, max_terms=6))
    b = data.draw(tensors(FORM, p, max_terms=6))
    other = GradedTensor.zero(FORM, (p + 3) % (DIM + 1))
    # disjoint, shared, equal and opposite keys, and a zero of another degree on either side
    for u, v in ((a, b), (a, a), (a, -a), (a, a * 3), (a, a + b), (a, other), (other, a), (other, other)):
        for sign in (1, -1):
            new = u + v if sign > 0 else u - v
            assert_same_tensor(new, reference_tensor.grouped_combine(u, v, sign))
            assert all(new.terms.values()), "a zero coefficient was stored"
    target = data.draw(st.integers(0, DIM))
    matrix = ExactMatrix(data.draw(sparse_matrices(len(basis(target)), len(basis(p)))))
    # entries over a shared denominator, and the integer matrix with entries past +-1
    for matrix in (matrix, matrix * matrix._den):
        for t in (a, sharp(b), GradedTensor.zero(FORM, p)):
            new = apply_matrix(matrix, t, target, t.variance)
            assert_same_tensor(new, reference_tensor.apply_matrix(matrix, t, target, t.variance))
            assert all(new.terms.values()), "a zero coefficient was stored"
    for t in (a, a * -3, exterior_derivative(a), GradedTensor.zero(FORM, p)):
        assert_same_tensor(exterior_derivative(t), reference_calculus.exterior_derivative(t))


def test_linear_kernels_cancel_and_scale():
    f = x(0) * Fraction(2, 3) + 1
    t = dx(0, coeff=f) + dx(1, coeff=f) + dx(2, coeff=x(1))
    # row 0 takes 5/6 of column 0 and -5/6 of column 1, which cancel; row 3 takes 3 times column 2 alone
    matrix = ExactMatrix.from_quotients((8, 8), [(0, 0, 5, 6), (0, 1, -5, 6), (3, 2, 3, 1), (4, 0, 1, 6)])
    assert matrix._den == 6
    image = apply_matrix(matrix, t, 1, FORM)
    assert image.terms == {(3,): x(1) * 3, (4,): f * Fraction(1, 6)}
    assert_same_tensor(image, reference_tensor.apply_matrix(matrix, t, 1, FORM))
    # an integer matrix whose rows each hold one entry past +-1
    doubled = apply_matrix(ExactMatrix.identity(8) * -2, t, 1, FORM)
    assert doubled.terms == {k: v * -2 for k, v in t.terms.items()}
    # d of x0 x1 dx2: two lone terms, and d of d cancels inside each key
    g = dx(2, coeff=x(0) * x(1) * 3)
    assert exterior_derivative(g) == dx(0, 2, coeff=x(1) * 3) + dx(1, 2, coeff=x(0) * 3)
    assert exterior_derivative(exterior_derivative(g)).terms == {}


# -- derivatives: one kernel against the per-derivative loops it replaced --------

# coefficients over the denominators 1, 2, 3 and 6, so the derivatives of one key share or widen their lcm
sixths = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 6)))
sixth_polynomials = st.dictionaries(small_exponents, sixths, max_size=4).map(Polynomial)


@pytest.mark.parametrize("k", range(DIM + 1))
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_exterior_derivative_matches_per_derivative_sums(k, data):
    keys = basis(k)
    terms = data.draw(st.dictionaries(st.sampled_from(keys), sixth_polynomials, max_size=min(6, len(keys))))
    beta = GradedTensor(FORM, k, terms)
    for t in (beta, beta * Fraction(-5, 6), exterior_derivative(beta)):
        new = exterior_derivative(t)
        assert_same_tensor(new, reference_calculus.exterior_derivative(t))
        assert all(new.terms.values()), "a zero coefficient was stored"


def test_derivatives_that_cancel_leave_no_coefficient():
    # d(x1 dx0 + x0 dx1) = -dx0^dx1 + dx0^dx1: the one output key cancels
    beta = dx(0, coeff=x(1)) + dx(1, coeff=x(0))
    assert_same_tensor(exterior_derivative(beta), GradedTensor.zero(FORM, 2))
    assert_same_tensor(exterior_derivative(beta), reference_calculus.exterior_derivative(beta))
    # halves cancel on one key over denominator 2, a third stays on its neighbour over denominator 3
    beta = beta * Fraction(1, 2) + dx(2, coeff=x(0) * Fraction(1, 3))
    assert exterior_derivative(beta).terms == {(0, 2): Polynomial.constant(Fraction(1, 3))}
    assert_same_tensor(exterior_derivative(beta), reference_calculus.exterior_derivative(beta))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, DIM - 1), term_dicts), max_size=5), st.booleans())
def test_sum_of_derivatives_matches_reference(triples, cancel):
    if cancel:  # every derivative also enters with the opposite sign
        triples = triples + [(-sign, i, p) for sign, i, p in reversed(triples)]
    expected = Reference({})
    for sign, i, p in triples:
        expected = expected + Reference(p).diff(i) * sign
    assert_same(Polynomial.sum_of_derivatives([(sign, i, Polynomial(p)) for sign, i, p in triples]), expected)
    for _, i, p in triples:
        new, old = Polynomial(p).diff(i), reference_calculus.diff(Polynomial(p), i)
        assert_same(new, Reference(p).diff(i))
        assert (new._nums, new._den) == (old._nums, old._den)


@pytest.mark.parametrize("i", [True, False, -1, DIM, 1.0, Fraction(1)])
def test_diff_refusals_are_unchanged(i):
    with pytest.raises(ValueError, match=rf"variable index {re.escape(repr(i))} outside 0\.\.{DIM - 1}"):
        (x(0) ** 2 * x(7)).diff(i)


# -- serialize: the writer against the plain documents, the loader against the located parse --


def nested(value, depth):
    """``value`` inside ``depth`` alternating dicts and lists, among plain members."""
    for level in range(depth):
        value = {"n": level, "value": value, "s": "x"} if level % 2 else [level, value, None]
    return value


@pytest.mark.parametrize("degree", range(DIM + 1))
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_json_text_of_tensors_matches_json_dumps_of_documents(degree, data):
    variance = data.draw(st.sampled_from([FORM, MULTIVECTOR]))
    t = data.draw(st.one_of(tensors(variance, degree, max_terms=4), st.just(GradedTensor.zero(variance, degree))))
    p = data.draw(term_dicts.map(Polynomial))  # the zero polynomial, negative numerators, den > 1
    for depth in range(5):
        for value in (t, p, {"t": t, "p": p, "zero": Polynomial()}, [p, t, 3]):
            assert json_text(nested(value, depth)) == json.dumps(nested(as_documents(value), depth), indent=2)


def test_json_text_of_edge_tensors():
    scalar = GradedTensor(FORM, 0, {(): Polynomial({(0,) * DIM: Fraction(-7, 3), (1,) + (0,) * 7: 5})})
    wide = dx(0, 1, coeff=Fraction(-(10**200), 3))
    for value in (scalar, wide, GradedTensor.zero(MULTIVECTOR, 0), Polynomial(), [Polynomial(), {}]):
        for depth in range(5):
            assert json_text(nested(value, depth)) == json.dumps(nested(as_documents(value), depth), indent=2)
    assert '"idx": []' in json_text(scalar) and '"num": "-7"' in json_text(scalar)
    assert json_text(Polynomial()) == "[]"



@pytest.fixture
def no_digit_limit():
    """The interpreter's int/str digit limit lifted, as the command line lifts it, then restored."""
    if not hasattr(sys, "set_int_max_str_digits"):  # before 3.10.7 there is no limit
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def monomial_sites(doc, depth=0):
    """``(depth, exp)`` of each monomial of a plain document value, its depth counted in containers."""
    if isinstance(doc, dict):
        if "exp" in doc:
            yield depth, tuple(doc["exp"])
        for item in doc.values():
            yield from monomial_sites(item, depth + 1)
    elif isinstance(doc, list):
        for item in doc:
            yield from monomial_sites(item, depth + 1)


def repeated_monomials():
    """A payload shaped like the command line's that repeats few monomials across terms and depths.

    ``p`` is over 6 with terms over 6, 2 and 3, ``q`` has ``den == 1``
    and ``wide`` has a numerator past CPython's default digit limit.
    """
    one, a, b = (0,) * DIM, (1, 0, 2, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0, 3)
    p = Polynomial({one: Fraction(1, 6), a: Fraction(-5, 2), b: Fraction(7, 3)})
    q = Polynomial({one: 4, a: -1})
    wide = Polynomial({b: Fraction(10**5000 + 1, 3)})
    t = GradedTensor(FORM, 2, {(0, 1): p, (2, 5): q, (3, 4): wide, (1, 7): p * q})
    scalar = GradedTensor(MULTIVECTOR, 0, {(): q})
    return p, {
        "input": t,
        "components": {"a": t, "b": [t, p]},
        "norms": [p, q, Polynomial(), wide],
        "scalar": scalar,
        "flag": True,
    }


def test_json_text_formats_each_monomial_once_per_indent_and_call(no_digit_limit):
    p, value = repeated_monomials()
    expected = json.dumps(as_documents(value), indent=2)
    sites = set(monomial_sites(as_documents(value)))
    assert len({depth for depth, _ in sites}) >= 3 and len(sites) < sum(1 for _ in monomial_sites(as_documents(value)))
    assert {p._den} < {d for _, _, d in p._packed_quotients()} and '"den": "1"' in expected
    serialize._monomial_pieces.cache_clear()
    with mock.patch.object(serialize, "_unpack", wraps=serialize._unpack) as unpack:
        first = json_text(value)
        assert unpack.call_count == len(sites)
        bare = json_text(p)  # the same monomials at another indent, in a call of its own
        again = json_text(value)
        assert unpack.call_count == 2 * len(sites) + len(p._nums)  # no table outlives its call
    assert first == again == expected
    assert bare == json.dumps(polynomial_to_document(p), indent=2)
    # one template per indent that holds a monomial, whatever the number of monomials
    assert serialize._monomial_pieces.cache_info().currsize == len({depth for depth, _ in sites} | {1})

def assert_same_load(doc, location="$"):
    assert load_outcome(doc, location) == located_outcome(doc, location)


def polynomial_outcome(load, doc):
    try:
        p = load(doc, "$.c")
    except ParseError as exc:
        return str(exc)
    return p._nums, p._den


class Refused(Exception):
    pass


def refuse(node, *location):
    raise Refused(location)


def guard_takes(coeff):
    """Whether the loader takes every monomial of ``coeff`` without its located body."""
    with mock.patch.object(serialize, "_located_monomial", refuse):
        try:
            document_to_polynomial(coeff)
        except (Refused, ParseError):  # ParseError: not a list
            return False
    return True


def assert_same_polynomial_load(coeff):
    assert polynomial_outcome(document_to_polynomial, coeff) == polynomial_outcome(reference_serialize.document_to_polynomial, coeff)
    assert guard_takes(coeff) == (reference_serialize.packed_monomials(coeff) is not None)


@settings(max_examples=300, deadline=None)
@given(st.one_of(near_valid_documents(), json_values))
def test_document_to_tensor_matches_located_parse(doc):
    assert_same_load(doc)
    assert_same_load(doc, "$.form")
    terms = doc.get("terms") if isinstance(doc, dict) else None
    for term in terms if isinstance(terms, list) else []:
        assert_same_polynomial_load(term.get("coeff") if isinstance(term, dict) else term)


def monomial(exp=(0, 1, 0, 0, 0, 0, 0, 2), num="-3", den="4"):
    return {"exp": list(exp), "num": num, "den": den}


@pytest.mark.parametrize(
    "coeff",
    [
        [monomial(exp=(True,) + (0,) * 7)],  # a bool is an int to struct, not to the format
        [monomial(exp=(1.0,) + (0,) * 7)],
        [monomial(exp=(MAX_EXPONENT + 1,) + (0,) * 7)],
        [monomial(exp=(65536,) + (0,) * 7)],
        [monomial(exp=(-1,) + (0,) * 7)],
        [monomial(exp=(0,) * 7)],
        [monomial(exp=(0,) * 9)],
        [{"exp": tuple([0] * 8), "num": "1", "den": "1"}],
        [monomial(num=7)],
        [monomial(num="1_0")],
        [monomial(num=" 7 ")],
        [monomial(den="0")],
        [monomial(den="-0")],
        [monomial(den="-6")],
        [monomial(), monomial(den="0")],
        [{"exp": [0] * 8, "num": "5"}],
        [{"exp": [0] * 8, "den": "5"}],
        [monomial(num="7" * 5000)],
        [monomial(), "x"],
        "",
        {},
        [],
    ],
)
def test_document_to_polynomial_matches_located_parse_on_edge_cases(coeff):
    assert_same_polynomial_load(coeff)
    doc = {"variance": "form", "degree": 2, "terms": [{"idx": [1, 0], "coeff": coeff}]}
    assert_same_load(doc)


@pytest.mark.parametrize("idx", [[0, 8], [-1, 2], [True, 2], [1.0, 2], [0], [0, 1, 2], "01", None, [3, 3], [2, 1]])
def test_document_to_tensor_matches_located_parse_on_index_edge_cases(idx):
    assert_same_load({"variance": "form", "degree": 2, "terms": [{"idx": idx, "coeff": [monomial()]}]})


@settings(max_examples=100, deadline=None)
@given(near_valid_documents(odds=None))
def test_well_formed_documents_take_the_guard(doc):
    # the differential tests above would pass vacuously if every node went the located way
    coeff = [monomial(), monomial(den="-6"), {"exp": [0] * 8, "num": "5"}]
    doc["terms"].append({"idx": list(range(doc["degree"]))[::-1], "coeff": coeff})
    with mock.patch.object(serialize, "_located_monomial", refuse), mock.patch.object(serialize, "_located_idx", refuse):
        assert load_outcome(doc) == located_outcome(doc)
