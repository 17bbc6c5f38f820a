import enum
import operator
import random
import re
from fractions import Fraction

import pytest
import reference_spin7
import reference_tensor

from cayley8.linalg import ExactMatrix, SingularMatrixError
from cayley8 import calculus, spin7
from cayley8.multiindex import basis, basis_position
from cayley8.polynomial import ONE, Polynomial, x
from cayley8.tensor import (
    FORM,
    MULTIVECTOR,
    DegreeMismatch,
    GradedTensor,
    VarianceMismatch,
    _grouped_sum,
    apply_matrix,
    contract,
    dx,
    flat,
    hodge,
    inner,
    mv,
    musical,
    pullback_linear,
    quadratic_form,
    sharp,
    structure_matrix,
    unit,
    vol,
    wedge,
)
from cayley8.verify import contraction_oracle, random_tensor


class Degree(enum.IntEnum):
    """An int subclass that ``multiindex.basis`` refuses, so no tensor may carry it."""

    ONE = 1


class TestConstruction:
    def test_unsorted_indices_canonicalize(self):
        assert GradedTensor(FORM, 2, {(1, 0): 1}) == dx(0, 1) * -1

    def test_repeated_index_drops(self):
        assert GradedTensor(FORM, 2, {(1, 1): 5}).is_zero()

    def test_wrong_length_rejected(self):
        with pytest.raises(DegreeMismatch):
            GradedTensor(FORM, 2, {(0,): 1})
        # a repeated index would drop the term: the length is checked first, as the loader does
        with pytest.raises(DegreeMismatch, match=r"index \(0, 0, 1\) has length 3, expected 1"):
            GradedTensor(FORM, 1, {(0, 0, 1): x(0)})
        # so does a zero coefficient, which drops the term only after its index is read
        with pytest.raises(DegreeMismatch, match=r"index \(0, 0, 1\) has length 3, expected 1"):
            GradedTensor(FORM, 1, {(0, 0, 1): 0})

    def test_bool_index_rejected(self):
        for make in (
            lambda: dx(True),
            lambda: mv(0, True),
            lambda: GradedTensor(FORM, 1, {(False,): 1}),
            lambda: dx(Degree.ONE),
            lambda: GradedTensor(FORM, 1, {(True,): 0}),
            lambda: GradedTensor(FORM, 1, {(9,): 0}),
        ):
            with pytest.raises(ValueError, match="outside 0..7"):
                make()

    def test_nonzero_out_of_range_degree_rejected(self):
        with pytest.raises(DegreeMismatch):
            GradedTensor(FORM, 9, {(0,): 1})

    def test_zero_tensor_any_degree(self):
        assert GradedTensor.zero(FORM, 11).is_zero()
        assert GradedTensor.zero(FORM, -1).is_zero()

    def test_immutable(self):
        with pytest.raises(AttributeError):
            dx(0).degree = 3
        with pytest.raises(AttributeError):
            (dx(0) + dx(1)).terms = {}

    @pytest.mark.parametrize("degree", [True, False])
    def test_bool_degree_rejected(self, degree):
        # a bool is an int, but a document with "degree": true does not load
        with pytest.raises(DegreeMismatch, match="integer"):
            GradedTensor(FORM, degree, {tuple(range(degree)): 1})
        with pytest.raises(DegreeMismatch, match="integer"):
            GradedTensor.zero(MULTIVECTOR, degree)

    def test_coefficient_lookup_with_sign(self):
        t = dx(0, 1, coeff=3)
        assert t.coefficient((1, 0)) == Polynomial.constant(-3)


class TestWedge:
    def test_basis_case(self):
        assert wedge(dx(0), dx(1)) == dx(0, 1)

    def test_antisymmetry(self):
        assert wedge(dx(1), dx(0)) == dx(0, 1) * -1

    def test_overflow_is_zero(self):
        a = dx(0, 1, 2, 3, 4)
        b = dx(5, 6, 7, coeff=2)
        assert wedge(wedge(a, b), dx(0)).is_zero()

    def test_variance_mismatch(self):
        with pytest.raises(VarianceMismatch):
            wedge(dx(0), mv(1))

    def test_graded_commutativity(self, make_tensor):
        for p, q in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 4)]:
            a, b = make_tensor(FORM, p), make_tensor(FORM, q)
            assert wedge(a, b) == wedge(b, a) * ((-1) ** (p * q))

    def test_associativity(self, make_tensor):
        for _ in range(5):
            a, b, c = (make_tensor(FORM, d) for d in (1, 2, 2))
            assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))

    def test_degree_zero_multiplies(self):
        f = unit() * x(3)
        assert wedge(f, dx(0)) == dx(0, coeff=x(3))


class TestContract:
    def test_two_into_two(self):
        assert contract(mv(0, 1), dx(0, 1)) == unit()

    def test_order_convention(self):
        # (e0 ^ e1) _| dx012 applies e0 first: e1 _| (e0 _| dx012) = dx2
        assert contract(mv(0, 1), dx(0, 1, 2)) == dx(2)

    def test_higher_degree_multivector_gives_zero(self):
        result = contract(mv(0, 1), dx(0))
        assert result.is_zero()
        assert (result.variance, result.degree) == (FORM, -1)

    def test_variance_checks(self):
        with pytest.raises(VarianceMismatch):
            contract(dx(0), dx(0, 1))
        with pytest.raises(VarianceMismatch):
            contract(mv(0), mv(0, 1))

    def test_coefficients_multiply_pointwise(self):
        q = mv(0, coeff=x(1))
        beta = dx(0, coeff=x(0))
        assert contract(q, beta) == unit() * (x(0) * x(1))

    def test_matches_decomposable_oracle(self, make_tensor, rng):
        for _ in range(40):
            k = rng.randint(1, 8)
            l = rng.randint(1, k)
            q = make_tensor(MULTIVECTOR, l)
            beta = make_tensor(FORM, k)
            assert contract(q, beta) == contraction_oracle(q, beta)


class TestHodge:
    def test_unit_to_volume(self):
        assert hodge(unit()) == vol()
        assert hodge(vol()) == unit()

    def test_identity_permutation(self):
        assert hodge(dx(0, 1, 2, 3)) == dx(4, 5, 6, 7)

    def test_involution_sign(self, make_tensor):
        for k in range(9):
            beta = make_tensor(FORM, k)
            assert hodge(hodge(beta)) == beta * ((-1) ** k)

    def test_inner_consistency(self, make_tensor):
        for k in range(9):
            beta = make_tensor(FORM, k)
            assert wedge(beta, hodge(beta)) == vol() * inner(beta, beta)

    def test_pairing_orthogonality(self):
        assert wedge(dx(0, 1), hodge(dx(0, 2))).is_zero()

    def test_wedge_star_computes_inner(self, make_tensor):
        a, b = make_tensor(FORM, 3), make_tensor(FORM, 3)
        assert wedge(a, hodge(b)) == vol() * inner(a, b)


class TestMusical:
    def test_examples(self):
        assert flat(mv(0)) == dx(0)
        assert flat(mv(0, 3)) == dx(0, 3)
        assert sharp(dx(2, 5)) == mv(2, 5)

    def test_involution(self, make_tensor):
        q = make_tensor(MULTIVECTOR, 3)
        assert sharp(flat(q)) == q
        assert musical(musical(q)) == q

    def test_variance_guards(self):
        with pytest.raises(VarianceMismatch):
            flat(dx(0))
        with pytest.raises(VarianceMismatch):
            sharp(mv(0))


class TestInner:
    def test_orthonormal_basis(self):
        assert inner(dx(0), dx(0)) == Polynomial.one()
        assert inner(dx(0), dx(1)).is_zero()

    def test_sorted_basis_forms_are_orthonormal(self):
        from cayley8.multiindex import basis

        for i in basis(3):
            for j in basis(3):
                value = inner(dx(*i), dx(*j))
                assert value == (Polynomial.one() if i == j else Polynomial.zero())

    def test_volume_has_unit_coefficient(self):
        assert vol().coefficient(tuple(range(8))) == Polynomial.one()

    def test_symmetric_bilinear(self, make_tensor):
        a, b = make_tensor(FORM, 2), make_tensor(FORM, 2)
        assert inner(a, b) == inner(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(VarianceMismatch):
            inner(dx(0), mv(0))
        with pytest.raises(DegreeMismatch):
            inner(dx(0), dx(0, 1))


class TestPullback:
    def matrix(self, entries=None):
        """The 8x8 identity with the ``{(i, j): value}`` entries set, as an ``ExactMatrix``."""
        rows = [[int(i == j) for j in range(8)] for i in range(8)]
        for (i, j), value in (entries or {}).items():
            rows[i][j] = value
        return ExactMatrix(rows)

    def test_identity(self, make_tensor):
        beta = make_tensor(FORM, 2)
        assert pullback_linear(self.matrix(), beta) == beta

    def test_diagonal_scaling(self):
        assert pullback_linear(self.matrix({(0, 0): 2}), dx(0, 1)) == dx(0, 1) * 2

    def test_functorial(self, make_tensor, rng):
        a = self.matrix({(0, 3): Fraction(1, 2)})
        b = self.matrix({(2, 1): -3})
        beta = make_tensor(FORM, 2)
        assert pullback_linear(a @ b, beta) == pullback_linear(b, pullback_linear(a, beta))

    def test_commutes_with_wedge(self, make_tensor):
        matrix = self.matrix({(4, 5): Fraction(7, 3)})
        a, b = make_tensor(FORM, 1), make_tensor(FORM, 2)
        assert pullback_linear(matrix, wedge(a, b)) == wedge(
            pullback_linear(matrix, a), pullback_linear(matrix, b)
        )

    def test_rotation_commutes_with_hodge(self, make_tensor):
        matrix = self.matrix(
            {(0, 0): Fraction(3, 5), (0, 1): Fraction(-4, 5), (1, 0): Fraction(4, 5), (1, 1): Fraction(3, 5)}
        )
        for k in (1, 2, 4):
            beta = make_tensor(FORM, k)
            assert hodge(pullback_linear(matrix, beta)) == pullback_linear(matrix, hodge(beta))

    def test_contraction_invariance(self, make_tensor):
        matrix = self.matrix({(0, 1): 5, (3, 3): Fraction(1, 2)})
        q = make_tensor(MULTIVECTOR, 2)
        beta = make_tensor(FORM, 3)
        assert contract(
            pullback_linear(matrix, q), pullback_linear(matrix, beta)
        ) == pullback_linear(matrix, contract(q, beta))

    def test_singular_pushforward_errors(self):
        matrix = self.matrix({(0, 0): 0})
        with pytest.raises(SingularMatrixError, match="needs an invertible matrix"):
            pullback_linear(matrix, mv(0, 1))
        # forms do not need invertibility
        assert pullback_linear(matrix, dx(0)).is_zero()

    def test_coefficients_compose(self):
        beta = dx(1, coeff=x(0))
        assert pullback_linear(self.matrix({(0, 0): 2}), beta) == dx(1, coeff=2 * x(0))

    def test_reads_its_matrix_only_through_apply_matrix(self, make_tensor, rng, monkeypatch):
        # with the dense rows refused, forms and multivectors still pull back as the reference does
        entries = {(i, i): Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 3)) for i in range(8)}
        for i, j in basis(2):
            if rng.random() < 0.3:
                entries[i, j] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        matrix = self.matrix(entries)  # triangular with a nonzero diagonal, so invertible
        cases = [make_tensor(variance, k) for variance in (FORM, MULTIVECTOR) for k in (1, 2, 3)]
        expected = [reference_tensor.pullback_linear(matrix.rows, t) for t in cases]

        def refuse(*args):
            raise AssertionError("pullback_linear read a dense view of its matrix")

        monkeypatch.setattr(ExactMatrix, "rows", property(refuse))
        assert [pullback_linear(matrix, t) for t in cases] == expected

    def test_writing_into_rows_changes_nothing(self):
        # rows is a fresh list on each call, so the matrix and its pullback keep their entries
        m = ExactMatrix.identity(8)
        m.rows[0][0] = 2
        assert m.rows == ExactMatrix.identity(8).rows and m == ExactMatrix.identity(8)
        assert pullback_linear(m, dx(0)) == dx(0)

    def test_only_an_eight_by_eight_exact_matrix(self):
        rows = [[int(i == j) for j in range(8)] for i in range(8)]
        with pytest.raises(TypeError, match="needs an ExactMatrix, got list"):
            pullback_linear(rows, dx(0))
        with pytest.raises(ValueError, match="expected an 8x8 matrix, got 7x8"):
            pullback_linear(ExactMatrix(rows[:7]), dx(0))
        with pytest.raises(ValueError, match="expected an 8x8 matrix, got 8x7"):
            pullback_linear(ExactMatrix([row[:7] for row in rows]), mv(0))


class TestSignedAccumulation:
    def test_lone_triple_keeps_its_integer_factor(self):
        # mask 3 is the index (0, 1)
        assert _grouped_sum({3: [(3, x(0), ONE)]}, Polynomial.sum_of_products) == {(0, 1): x(0) * 3}
        assert _grouped_sum({3: [(-2, x(0), ONE)]}, Polynomial.sum_of_products) == {(0, 1): x(0) * -2}
        assert _grouped_sum({3: [(-1, x(0), ONE)]}, Polynomial.sum_of_products) == {(0, 1): -x(0)}

    def test_lone_triple_with_a_constant_factor(self):
        half = Polynomial.constant(Fraction(1, 2))
        assert _grouped_sum({3: [(1, x(0), half)]}, Polynomial.sum_of_products) == {(0, 1): x(0) * Fraction(1, 2)}
        assert _grouped_sum({3: [(-4, x(0), half)]}, Polynomial.sum_of_products) == {(0, 1): x(0) * -2}
        # a unit factor keeps the coefficient itself
        p = x(0) + x(1)
        assert _grouped_sum({3: [(-1, p, Polynomial.constant(-1))]}, Polynomial.sum_of_products)[(0, 1)] is p
        assert _grouped_sum({3: [(2, p, Polynomial.zero())]}, Polynomial.sum_of_products) == {}

    def test_scalar_multiple(self):
        t = dx(0, 1, coeff=x(0) + Fraction(1, 3)) + dx(2, 3, coeff=x(1))
        assert (t * 3).terms == {(0, 1): 3 * x(0) + 1, (2, 3): 3 * x(1)}
        assert t * Fraction(3, 1) == t * Polynomial.constant(3) == 3 * t
        assert t * Fraction(-3, 2) == t * Polynomial.constant(Fraction(-3, 2))
        assert (t * 0).is_zero() and (t * 0).degree == 2

    @pytest.mark.parametrize("value", [True, False])
    def test_a_bool_is_not_a_scalar(self, value):
        with pytest.raises(TypeError, match="expected an exact rational, got bool"):
            dx(0, 1) * value
        with pytest.raises(TypeError, match="expected an exact rational, got bool"):
            value * dx(0, 1)


class TestApplyMatrix:
    def test_transposition_of_coordinates(self):
        # coordinates (a, b, c) of a one-form to a two-form (b on dx01, -a on dx12)
        entries = [(0, 1, 1, 1), (basis_position((1, 2)), 0, -1, 1)]
        matrix = ExactMatrix.from_quotients((28, 8), entries)
        alpha = dx(0, coeff=x(3)) + dx(1, coeff=x(4)) + dx(2, coeff=x(5))
        assert apply_matrix(matrix, alpha, 2, FORM) == dx(0, 1, coeff=x(4)) - dx(1, 2, coeff=x(3))
        image = apply_matrix(matrix, alpha, 2, MULTIVECTOR)
        assert (image.variance, image.degree) == (MULTIVECTOR, 2)

    def test_zero_input(self):
        matrix = ExactMatrix.identity(28)
        out = apply_matrix(matrix, GradedTensor.zero(FORM, 5), 2, MULTIVECTOR)
        assert out.is_zero() and (out.variance, out.degree) == (MULTIVECTOR, 2)

    def test_a_zero_tensor_meets_the_row_count(self):
        # the rows are checked before the zero shortcut; a zero passes any column degree
        with pytest.raises(DegreeMismatch, match="a 3x3 matrix does not map degree 1 to degree 1"):
            apply_matrix(ExactMatrix.identity(3), GradedTensor.zero(FORM, 1), 1, FORM)
        out = apply_matrix(spin7.map_matrix(2), GradedTensor.zero(FORM, 5), 2, FORM)
        assert out.is_zero() and (out.variance, out.degree) == (FORM, 2)

    def test_shape_must_fit_the_degrees(self):
        with pytest.raises(DegreeMismatch, match="does not map degree 1 to degree 2"):
            apply_matrix(ExactMatrix.identity(8), dx(0), 2, FORM)
        with pytest.raises(DegreeMismatch, match="does not map degree 2 to degree 2"):
            apply_matrix(ExactMatrix.identity(8), dx(0, 1), 2, FORM)

    def test_layout_follows_the_matrix(self):
        # two matrices built in turn each get their own layout
        alpha = dx(0, coeff=x(0))
        assert apply_matrix(ExactMatrix.identity(8) * 2, alpha, 1, FORM) == alpha * 2
        assert apply_matrix(ExactMatrix.identity(8) * 3, alpha, 1, FORM) == alpha * 3
        # the same matrix read as 1 -> 1 and as 7 -> 7
        reverse = ExactMatrix.from_quotients((8, 8), [(i, 7 - i, 1, 1) for i in range(8)])
        assert apply_matrix(reverse, dx(0), 1, FORM) == dx(7)
        assert apply_matrix(reverse, dx(1, 2, 3, 4, 5, 6, 7), 7, FORM) == dx(0, 1, 2, 3, 4, 5, 6)

    def test_common_denominator_and_negative_entries(self):
        # entries -3/2, 5/6 and -1/3 over the denominator 6, on one-forms and seven-forms
        matrix = ExactMatrix.from_quotients((8, 8), [(0, 0, -3, 2), (2, 0, 5, 6), (7, 3, -1, 3), (1, 1, 1, 1)])
        assert matrix.transpose().rows[0][2] == Fraction(5, 6)
        alpha = dx(0, coeff=x(1) * 2) + dx(1, coeff=Fraction(1, 5)) + dx(3, coeff=x(0) + 3)
        expected = (
            dx(0, coeff=x(1) * -3) + dx(2, coeff=x(1) * Fraction(5, 3)) + dx(1, coeff=Fraction(1, 5))
            + dx(7, coeff=(x(0) + 3) * Fraction(-1, 3))
        )
        assert apply_matrix(matrix, alpha, 1, FORM) == expected
        # read as 7 -> 7: column j is the j-th seven-form, dx(0..7 without 7 - j)
        seven = basis(7)
        sigma = GradedTensor(FORM, 7, {seven[0]: x(2), seven[3]: -1})
        image = apply_matrix(matrix, sigma, 7, MULTIVECTOR)
        assert image == GradedTensor(
            MULTIVECTOR, 7, {seven[0]: x(2) * Fraction(-3, 2), seven[2]: x(2) * Fraction(5, 6), seven[7]: Fraction(1, 3)}
        )
        for t, degree in ((alpha, 1), (sigma, 7)):
            assert apply_matrix(matrix, t, degree, FORM) == reference_spin7.apply_matrix(matrix, t, degree, FORM)

    def test_many_matrices_built_applied_and_dropped(self):
        # nothing is kept per matrix, so a new matrix at a reused address reads its own entries
        rng = random.Random(14)
        for n in range(200):
            source, target = rng.choice([(1, 1), (2, 2), (1, 3), (3, 1), (4, 4)])
            shape = (len(basis(target)), len(basis(source)))
            entries = [
                (rng.randrange(shape[0]), rng.randrange(shape[1]), rng.randint(-4, 4), rng.randint(1, 3))
                for _ in range(rng.randint(1, 12))
            ]
            matrix = ExactMatrix.from_quotients(shape, entries)
            t = random_tensor(rng, FORM, source, max_terms=4)
            assert apply_matrix(matrix, t, target, FORM) == reference_spin7.apply_matrix(matrix, t, target, FORM), n
            del matrix

    def test_structure_matrix_is_the_inverse_convention(self):
        # column j of structure_matrix holds images[j], and apply_matrix maps basis j back to it
        images = [wedge(dx(j), dx((j + 1) % 8)) * (j - 3) + dx(0, 7, coeff=Fraction(1, j + 1)) for j in range(8)]
        matrix = structure_matrix(images, 2)
        assert matrix.shape == (28, 8)
        for j, image in enumerate(images):
            assert apply_matrix(matrix, dx(j), 2, FORM) == image
        assert spin7.structure_matrix is structure_matrix

    def test_structure_matrix_refuses_an_image_of_another_degree(self):
        # read on the degree-1 basis, dx01 and dx02 would land at dx0 and dx1
        with pytest.raises(DegreeMismatch, match="expected degree 1, got 2"):
            structure_matrix([dx(0, 1), dx(0, 2)], 1)
        # a zero image passes at any degree, as in every other degree check
        zero = GradedTensor.zero(FORM, 2)
        assert structure_matrix([dx(0), zero], 1) == ExactMatrix.from_quotients((8, 2), [(0, 0, 1, 1)])

    @pytest.mark.parametrize("t", [dx(0), GradedTensor.zero(FORM, 1)], ids=["nonzero", "zero"])
    def test_apply_matrix_refuses_a_bad_shape(self, t):
        identity = ExactMatrix.identity(8)
        with pytest.raises(VarianceMismatch, match="unknown variance 'foo'"):
            apply_matrix(identity, t, 1, "foo")
        for degree in (1.0, True, Degree.ONE):
            message = re.escape(f"degree must be an integer, got {degree!r}")
            with pytest.raises(DegreeMismatch, match=message):
                apply_matrix(identity, t, degree, FORM)
            with pytest.raises(DegreeMismatch, match=message):
                GradedTensor(FORM, degree, {(0,): 1})
        with pytest.raises(TypeError, match="apply_matrix needs an ExactMatrix, got list"):
            apply_matrix([[1]], t, 1, FORM)
        assert apply_matrix(identity, t, 1, FORM) == t

    def test_quadratic_form_is_the_norm_of_the_image(self):
        # entries -3/2, 5/6 and -1/3 over the denominator 6, so the Gram matrix has cross entries and a denominator
        matrix = ExactMatrix.from_quotients((8, 8), [(0, 0, -3, 2), (2, 0, 5, 6), (2, 1, -1, 3), (7, 3, 1, 1)])
        alpha = dx(0, coeff=x(1) * 2) + dx(1, coeff=Fraction(1, 5)) + dx(3, coeff=x(0) + 3) + dx(5, coeff=x(2))
        image = apply_matrix(matrix, alpha, 1, FORM)
        assert quadratic_form(matrix, alpha) == inner(image, image)
        assert quadratic_form(matrix, musical(alpha)) == inner(image, image)
        # the same matrix read on seven-forms, and the structure maps on random sources
        seven = GradedTensor(FORM, 7, {basis(7)[0]: x(2), basis(7)[1]: 1, basis(7)[3]: -1})
        image = apply_matrix(matrix, seven, 7, FORM)
        assert quadratic_form(matrix, seven) == inner(image, image)
        rng = random.Random(38)
        for k in (1, 2, 3):
            m = spin7.map_matrix(k)
            for _ in range(4):
                t = random_tensor(rng, FORM, k, max_terms=5)
                image = apply_matrix(m, t, 4 - k, FORM)
                assert quadratic_form(m, t) == inner(image, image)

    def test_quadratic_form_reads_the_cached_gram_matrix(self, monkeypatch):
        matrix = ExactMatrix.from_quotients((8, 8), [(0, 0, 1, 1), (1, 0, 1, 1)])
        gram = matrix.gram()
        monkeypatch.setattr(ExactMatrix, "__matmul__", lambda a, b: pytest.fail("the Gram matrix is built again"))
        assert quadratic_form(matrix, dx(0, coeff=x(1))) == x(1) * x(1) * 2
        assert matrix.gram() is gram

    def test_quadratic_form_of_a_zero_and_bad_shapes(self):
        matrix = ExactMatrix.identity(8) * Fraction(1, 3)
        # a zero passes any degree and squares to the zero polynomial
        assert quadratic_form(matrix, GradedTensor.zero(FORM, 5)) == Polynomial.zero()
        assert quadratic_form(ExactMatrix.identity(28) * 0, dx(0, 1)) == Polynomial.zero()
        with pytest.raises(DegreeMismatch, match="a 8x8 matrix does not act on degree 2"):
            quadratic_form(matrix, dx(0, 1))
        with pytest.raises(TypeError, match="quadratic_form needs an ExactMatrix, got list"):
            quadratic_form([[1]], dx(0))

    def test_structure_matrix_takes_an_int_degree(self):
        images = [dx(j) for j in range(8)]
        assert structure_matrix(images, 1) == ExactMatrix.identity(8)
        for degree in (True, 1.0):
            with pytest.raises(ValueError, match="basis degree must be an int"):
                structure_matrix(images, degree)


# (operator, valid arguments, position of the argument under test, the degree
# that argument must have or None); for a pair, the degree of the other operand
SHAPE_RULE = {
    "contract.q": (contract, (mv(0), dx(0, 1)), 0, None),
    "contract.beta": (contract, (mv(0), dx(0, 1)), 1, None),
    "sharp": (sharp, (dx(0),), 0, None),
    "flat": (flat, (mv(0),), 0, None),
    "wedge.a": (wedge, (dx(0), dx(1)), 0, None),
    "wedge": (wedge, (dx(0), dx(1)), 1, None),
    "add": (operator.add, (dx(0), dx(1)), 1, 1),
    "sub": (operator.sub, (dx(0), dx(1)), 1, 1),
    "inner.a": (inner, (dx(0), dx(1)), 0, 1),
    "inner": (inner, (dx(0), dx(1)), 1, 1),
    "exterior_derivative": (calculus.exterior_derivative, (dx(0, coeff=x(1)),), 0, None),
    "codifferential": (calculus.codifferential, (dx(0, coeff=x(1)),), 0, None),
    "homotopy_primitive": (calculus.homotopy_primitive, (dx(0, coeff=x(1)),), 0, None),
    "lie_derivative.q": (calculus.lie_derivative, (mv(0, coeff=x(1)), dx(1)), 0, None),
    "lie_derivative.beta": (calculus.lie_derivative, (mv(0, coeff=x(1)), dx(1)), 1, None),
    "lie_derivative_multivector.x": (calculus.lie_derivative_multivector, (mv(0, coeff=x(1)), mv(1, 2)), 0, 1),
    "lie_derivative_multivector.t": (calculus.lie_derivative_multivector, (mv(0, coeff=x(1)), mv(1, 2)), 1, None),
    "schouten.q1": (calculus.schouten, (mv(0, coeff=x(1)), mv(1)), 0, None),
    "schouten.q2": (calculus.schouten, (mv(0, coeff=x(1)), mv(1)), 1, None),
    "is_locally_cayley": (spin7.is_locally_cayley, (mv(0),), 0, None),
    "cayley_potential": (spin7.cayley_potential, (mv(0),), 0, None),
    "two_form_operator": (spin7.two_form_operator, (dx(0, 1),), 0, 2),
    "three_form_operator": (spin7.three_form_operator, (dx(0, 1, 2),), 0, 3),
    "project2": (spin7.project2, (dx(0, 1),), 0, 2),
    "project3": (spin7.project3, (dx(0, 1, 2),), 0, 3),
    "project4": (spin7.project4, (dx(0, 1, 2, 3),), 0, 4),
    "psi2_inverse": (spin7.psi2_inverse, (dx(0, 1),), 0, 2),
    "psi3_section": (spin7.psi3_section, (dx(0),), 0, 1),
    "triple_product": (spin7.triple_product, (mv(0, 1, 2),), 0, 3),
    "cayley_2mvf_for": (spin7.cayley_2mvf_for, (dx(0),), 0, 1),
    "identity_report": (spin7.identity_report, ("seven_star", mv(0)), 1, 1),
}

# operators defined on both variances, in the layout of SHAPE_RULE: they refuse a non-tensor only
ANY_VARIANCE = {
    "hodge": (hodge, (dx(0),), 0, None),
    "musical": (musical, (dx(0),), 0, None),
    "structure_matrix": (lambda image: structure_matrix([image], 1), (dx(0),), 0, None),
    "apply_matrix": (apply_matrix, (ExactMatrix.identity(8), dx(0), 1, FORM), 1, None),
    "pullback_linear": (pullback_linear, (ExactMatrix.identity(8), dx(0)), 1, None),
    "quadratic_form": (quadratic_form, (ExactMatrix.identity(8), dx(0)), 1, None),
    "decompose": (spin7.decompose, (dx(0, 1),), 0, None),
}


class TestShapeRule:
    """Every operator refuses variance first, then degree; a zero passes any degree."""

    @staticmethod
    def _call(name, replacement):
        function, args, position, _ = {**SHAPE_RULE, **ANY_VARIANCE}[name]
        args = list(args)
        args[position] = replacement(args[position])
        return function(*args)

    @pytest.mark.parametrize("name", SHAPE_RULE)
    def test_wrong_variance(self, name):
        with pytest.raises(VarianceMismatch):
            self._call(name, musical)

    @pytest.mark.parametrize("name", [n for n, case in SHAPE_RULE.items() if case[3] is not None])
    def test_wrong_degree(self, name):
        def higher(t):
            return GradedTensor(t.variance, t.degree + 1, {tuple(range(t.degree + 1)): 1})

        with pytest.raises(DegreeMismatch):
            self._call(name, higher)
        # a zero of another degree passes; a zero of the other variance does not
        self._call(name, lambda t: GradedTensor.zero(t.variance, t.degree + 1))
        with pytest.raises(VarianceMismatch):
            self._call(name, lambda t: GradedTensor.zero(musical(t).variance, t.degree + 1))

    @pytest.mark.parametrize("name", [*SHAPE_RULE, *ANY_VARIANCE])
    def test_non_tensor(self, name):
        self._call(name, lambda t: t)
        for other in (x(0), None, 3):
            # + and - refuse through Python's reflected operators, in their own words
            message = None if name in ("add", "sub") else f"expected a GradedTensor, got {type(other).__name__}"
            with pytest.raises(TypeError, match=message):
                self._call(name, lambda t: other)

    @pytest.mark.parametrize("name", ["add", "sub", "inner"])
    def test_zero_first_operand_passes_any_degree(self, name):
        function = SHAPE_RULE[name][0]
        function(GradedTensor.zero(FORM, 3), dx(1))
        with pytest.raises(VarianceMismatch):
            function(GradedTensor.zero(MULTIVECTOR, 3), dx(1))
