from fractions import Fraction

import pytest

from cayley8 import linalg
from cayley8.linalg import ExactMatrix, SingularMatrixError


def test_rank_and_nullity():
    m = ExactMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert m.rank() == 2
    assert m.nullity() == 1
    assert m.rank() + m.nullity() == m.ncols


def test_nullspace_vectors_annihilate():
    m = ExactMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    kernel = m.nullspace()
    assert kernel.shape == (3, 1)
    assert (m @ kernel).rows == [[Fraction(0)]] * m.nrows


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


def test_trace():
    m = ExactMatrix([[1, 2], [3, 4]])
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
    assert rref == ExactMatrix.identity(2)
    assert rref.rows == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert m.rref()[0] is rref
    assert m.rref() is m.rref()


def test_each_stage_eliminates_once(monkeypatch):
    """``rank`` runs the forward pass alone; ``rref`` adds only the back-substitution to it."""
    cleared = []
    original = linalg._cleared
    monkeypatch.setattr(linalg, "_cleared", lambda *args: cleared.append(args) or original(*args))
    m = ExactMatrix([[2, 1, 0, 1], [4, 3, 1, 0], [-2, 0, 5, 1], [2, 3, 6, 1]])  # row 3 = row 1 + row 2
    assert (m.rank(), m.nullity()) == (3, 1)
    forward = len(cleared)
    assert forward > 0 and m._rref is None
    reduced, pivots = m.rref()
    back = len(cleared) - forward
    assert back > 0 and pivots == [0, 1, 2]
    assert (m.rank(), m.nullspace().shape, len(cleared)) == (3, (4, 1), forward + back)
    fresh = m * 1  # rref first: the same two stages, once each
    assert fresh.rref()[0] == reduced and fresh.rank() == 3
    assert len(cleared) == 2 * (forward + back)


@pytest.mark.parametrize("operand", [3, Fraction(1, 2), [[1, 0], [0, 1]]])
def test_operators_reject_non_matrices(operand):
    m = ExactMatrix.identity(2)
    with pytest.raises(TypeError):
        m @ operand
    with pytest.raises(TypeError):
        operand @ m
    with pytest.raises(TypeError):
        m + operand
    with pytest.raises(TypeError):
        operand + m
    with pytest.raises(TypeError):
        m - operand
    with pytest.raises(TypeError):
        operand - m
    with pytest.raises(TypeError, match=f"column_span_equals needs an ExactMatrix, got {type(operand).__name__}"):
        m.column_span_equals(operand)


@pytest.mark.parametrize("scalar", [1.0, "2", None])
def test_scalars_must_be_exact(scalar):
    with pytest.raises(TypeError):
        ExactMatrix.identity(2) * scalar
    with pytest.raises(TypeError):
        ExactMatrix([[scalar]])


@pytest.mark.parametrize("n", [True, 1.0, 0])
def test_identity_refuses_a_non_positive_integer(n):
    with pytest.raises(ValueError, match=f"positive integer size, not {n}"):
        ExactMatrix.identity(n)


@pytest.mark.parametrize("value", [True, False])
def test_a_bool_is_not_a_matrix_entry_or_scalar(value):
    # an entry and a scalar are each read by polynomial._quotient
    with pytest.raises(TypeError, match="expected an exact rational, got bool"):
        ExactMatrix([[value, 0], [0, 1]])
    with pytest.raises(TypeError, match="expected an exact rational, got bool"):
        ExactMatrix.identity(2) * value


@pytest.mark.parametrize("value", [True, False])
def test_shift_refuses_a_bool(value):
    # a shift is read by polynomial._quotient, as an entry or a scalar is
    with pytest.raises(TypeError, match="expected an exact rational, got bool"):
        ExactMatrix([[1, 2], [3, 4]]).shifted(value)


def test_shift_refuses_a_non_square_matrix():
    with pytest.raises(ValueError, match="shift of a non-square 2x3"):
        ExactMatrix([[1, 2, 3], [4, 5, 6]]).shifted(1)


def test_shifted_moves_the_diagonal():
    m = ExactMatrix([[1, 2], [3, Fraction(1, 2)]])
    assert m.shifted(1) == ExactMatrix([[0, 2], [3, Fraction(-1, 2)]])
    assert m.shifted(Fraction(1, 2)) == ExactMatrix([[Fraction(1, 2), 2], [3, 0]])
    assert m.shifted(-2) == ExactMatrix([[3, 2], [3, Fraction(5, 2)]])
    assert m.shifted(0) is m
    assert ExactMatrix([[2, 0], [0, 2]]).shifted(2) == ExactMatrix([[0, 0], [0, 0]])
    assert m == ExactMatrix([[1, 2], [3, Fraction(1, 2)]])


def test_canonical_form():
    """One denominator, no common factor with the numerators: equal matrices compare equal."""
    half = ExactMatrix([[Fraction(1, 2), Fraction(3, 4)], [0, Fraction(-5, 6)]])
    assert (half._den, half._nums) == (12, [{0: 6, 1: 9}, {1: -10}])
    assert half * 12 == ExactMatrix([[6, 9], [0, -10]])
    assert half * 12 * Fraction(1, 12) == half
    assert half - half == ExactMatrix([[0, 0], [0, 0]])
    zero = half * 0
    assert (zero._den, zero._nums) == (1, [{}, {}])
    assert zero != ExactMatrix([[0, 0, 0], [0, 0, 0]])  # the shape counts
    assert half.abs_entry_sum() == Fraction(1, 2) + Fraction(3, 4) + Fraction(5, 6)


def test_from_quotients():
    m = ExactMatrix.from_quotients((2, 3), [(0, 2, 1, 3), (1, 0, -2, 4), (0, 2, 1, 6), (1, 1, 5, -1)])
    assert m == ExactMatrix([[0, 0, Fraction(1, 2)], [Fraction(-1, 2), -5, 0]])
    assert ExactMatrix.from_quotients((2, 2), []) == ExactMatrix([[0, 0], [0, 0]])
    with pytest.raises(IndexError):
        ExactMatrix.from_quotients((2, 2), [(2, 0, 1, 1)])
    with pytest.raises(IndexError, match=r"entry \(True, 0\) outside a 2x2 matrix"):
        ExactMatrix.from_quotients((2, 2), [(True, 0, 1, 1)])
    for shape in ((0, 2), (True, 2), (2, 2.5)):
        with pytest.raises(ValueError, match="matrix needs at least one row and integer sizes"):
            ExactMatrix.from_quotients(shape, [])
    for num, den in ((1.5, 1), (Fraction(1, 2), 1)):
        with pytest.raises(TypeError, match="a quotient needs int num and den"):
            ExactMatrix.from_quotients((2, 2), [(0, 0, num, den)])
    with pytest.raises(ValueError, match="zero denominator"):
        ExactMatrix.from_quotients((2, 2), [(0, 0, 1, 0)])
    with pytest.raises(ValueError, match="matrix needs at least one row"):
        ExactMatrix([])
    with pytest.raises(ValueError, match="ragged rows"):
        ExactMatrix([[1, 2], [3]])


def test_rref_of_negative_and_scaled_pivots():
    m = ExactMatrix([[0, -2, 4, Fraction(2, 3)], [-3, 6, 0, 1], [3, -8, 4, 0]])
    rref, pivots = m.rref()
    assert pivots == [0, 1, 3]
    assert rref.rows == [
        [1, 0, -4, 0],
        [0, 1, -2, 0],
        [0, 0, 0, 1],
    ]
    assert m.nullspace() == ExactMatrix([[4], [2], [1], [0]])


def test_transpose_and_quotients():
    m = ExactMatrix([[Fraction(2, 3), 0, -1], [0, Fraction(1, 6), 0]])
    t = m.transpose()
    assert t.shape == (3, 2)
    assert t.rows == [list(col) for col in zip(*m.rows)]
    assert t.transpose() == m


def test_transpose_is_a_cached_view():
    m = ExactMatrix([[Fraction(2, 3), 0, -1], [0, Fraction(1, 6), 0]])
    t = m.transpose()
    assert m.transpose() is t
    assert t.transpose() is m
    # built from its other side first, the involution holds too
    s = ExactMatrix([[1, 2], [3, 4]]).transpose().transpose()
    assert s.transpose().transpose() is s
    assert ExactMatrix([[0, 0]]).transpose() == ExactMatrix([[0], [0]])
