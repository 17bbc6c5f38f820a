from fractions import Fraction

import pytest

from cayley8.linalg import ExactMatrix, SingularMatrixError


def test_rank_and_nullity():
    m = ExactMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert m.rank() == 2
    assert m.nullity() == 1
    assert m.rank() + m.nullity() == m.ncols


def test_nullspace_vectors_annihilate():
    m = ExactMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    for vec in m.nullspace():
        assert (m @ ExactMatrix.from_columns([vec])).rows == [[Fraction(0)]] * m.nrows


def test_inverse_roundtrip():
    m = ExactMatrix([[2, 1], [1, 1]])
    assert m @ m.inverse() == ExactMatrix.identity(2)
    assert m.inverse() @ m == ExactMatrix.identity(2)


def test_inverse_exact_fractions():
    m = ExactMatrix([[Fraction(1, 3), 0], [0, Fraction(7, 2)]])
    assert m.inverse().rows == [[Fraction(3), Fraction(0)], [Fraction(0), Fraction(2, 7)]]


def test_singular_inverse_raises():
    with pytest.raises(SingularMatrixError):
        ExactMatrix([[1, 2], [2, 4]]).inverse()
    with pytest.raises(SingularMatrixError):
        ExactMatrix([[1, 2, 3], [4, 5, 6]]).inverse()


def test_matmul_shapes():
    a = ExactMatrix([[1, 0, 2], [0, 1, 0]])
    b = ExactMatrix([[1], [2], [3]])
    assert (a @ b).rows == [[Fraction(7)], [Fraction(2)]]
    with pytest.raises(ValueError):
        b @ a @ b  # 3x1 @ 2x3


def test_transpose_and_trace():
    m = ExactMatrix([[1, 2], [3, 4]])
    assert m.transpose().rows == [[1, 3], [2, 4]]
    assert m.trace() == 5


def test_column_span_equality():
    a = ExactMatrix([[1, 0], [0, 1], [1, 1]])
    b = ExactMatrix([[1, 1], [1, -1], [2, 0]])  # same span, different basis
    c = ExactMatrix([[1, 0], [0, 0], [0, 0]])
    assert a.column_span_equals(b)
    assert not a.column_span_equals(c)
    inside = ExactMatrix([row + [v] for row, v in zip(a.rows, [1, 1, 2])])
    outside = ExactMatrix([row + [v] for row, v in zip(a.rows, [0, 0, 1])])
    assert inside.rank() == a.rank()
    assert outside.rank() == a.rank() + 1


def test_rref_cached_and_consistent():
    m = ExactMatrix([[0, 2], [1, 0]])
    rref, pivots = m.rref()
    assert pivots == [0, 1]
    assert rref == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert m.rref()[0] is rref
