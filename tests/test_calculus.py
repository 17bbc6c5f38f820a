from fractions import Fraction
from itertools import product

import pytest

import cayley8
from cayley8 import calculus, tensor
from cayley8.calculus import (
    codifferential,
    euler_field,
    exterior_derivative,
    homotopy_pair,
    homotopy_primitive,
    lie_derivative,
    lie_derivative_multivector,
    schouten,
)
from cayley8.polynomial import Polynomial, x
from cayley8.tensor import (
    FORM,
    MULTIVECTOR,
    DegreeMismatch,
    GradedTensor,
    VarianceMismatch,
    contract,
    dx,
    hodge,
    mv,
    scalar_tensor,
    unit,
    vol,
    wedge,
)


class TestExteriorDerivative:
    def test_coordinate_function(self):
        assert exterior_derivative(scalar_tensor(x(0))) == dx(0)

    def test_sign_from_reordering(self):
        assert exterior_derivative(dx(0, coeff=x(1))) == dx(0, 1) * -1

    def test_constant_forms_closed(self):
        assert exterior_derivative(dx(2, 5, coeff=Fraction(3, 7))).is_zero()

    def test_d_squared_zero(self, make_tensor):
        for k in range(9):
            beta = make_tensor(FORM, k, max_poly_degree=3)
            assert exterior_derivative(exterior_derivative(beta)).is_zero()

    def test_leibniz_rule(self, make_tensor):
        for p in (0, 1, 2):
            a = make_tensor(FORM, p)
            b = make_tensor(FORM, 2)
            lhs = exterior_derivative(wedge(a, b))
            rhs = wedge(exterior_derivative(a), b) + wedge(
                a, exterior_derivative(b)
            ) * ((-1) ** p)
            assert lhs == rhs

    def test_rejects_multivectors(self):
        with pytest.raises(VarianceMismatch):
            exterior_derivative(mv(0))


class TestCodifferential:
    def test_constant_coefficients(self):
        assert codifferential(dx(0)).is_zero()

    def test_linear_coefficient(self):
        assert codifferential(dx(0, coeff=x(0))) == unit() * -1

    def test_degree_zero_returns_zero(self):
        assert codifferential(scalar_tensor(x(0))).is_zero()

    def test_squared_zero(self, make_tensor):
        for k in range(2, 9):
            beta = make_tensor(FORM, k, max_poly_degree=3)
            assert codifferential(codifferential(beta)).is_zero()


class TestHomotopyPrimitive:
    def test_coordinate_one_form(self):
        assert homotopy_primitive(dx(0)) == scalar_tensor(x(0))

    def test_constant_two_form(self):
        expected = (dx(1, coeff=x(0)) - dx(0, coeff=x(1))) * Fraction(-1, 2)
        assert homotopy_primitive(dx(0, 1) * -1) == expected

    def test_degree_zero_rejected(self):
        with pytest.raises(DegreeMismatch):
            homotopy_primitive(scalar_tensor(x(0)))

    def test_homotopy_identity_all_degrees(self, make_tensor):
        for k in range(1, 9):
            beta = make_tensor(FORM, k, max_poly_degree=3)
            lhs = exterior_derivative(homotopy_primitive(beta)) + homotopy_primitive(
                exterior_derivative(beta)
            )
            assert lhs == beta

    def test_closed_forms_get_primitives(self, make_tensor):
        for k in range(0, 8):
            closed = exterior_derivative(make_tensor(FORM, k, max_poly_degree=3))
            if closed.is_zero():
                continue
            assert exterior_derivative(homotopy_primitive(closed)) == closed

    def test_pair_residuals(self, make_tensor):
        pair = homotopy_pair(make_tensor(FORM, 3))
        assert pair.identity_residual().is_zero()

    def test_euler_field_components(self):
        e = euler_field()
        assert e.coefficient((5,)) == x(5)

    def test_euler_field_has_one_home(self):
        # the cone primitive and the linear pullback read the same cached field
        assert calculus.euler_field is tensor.euler_field is cayley8.euler_field


@pytest.mark.parametrize("operation, variance, degree", [
    (lambda: wedge(dx(0, 1, 2, 3, 4), dx(4, 5, 6, 7)), FORM, 9),
    (lambda: wedge(vol(), dx(0, coeff=x(1))), FORM, 9),
    (lambda: wedge(mv(0, 1, 2, 3, 4, 5), mv(5, 6, 7)), MULTIVECTOR, 9),
    (lambda: contract(mv(0, 1), dx(0)), FORM, -1),
    (lambda: contract(mv(0, 1, 2, coeff=x(0)), unit()), FORM, -3),
    (lambda: hodge(GradedTensor.zero(FORM, -1)), FORM, 9),
    (lambda: hodge(GradedTensor.zero(MULTIVECTOR, 9)), MULTIVECTOR, -1),
    (lambda: codifferential(scalar_tensor(x(0) * x(3))), FORM, -1),
    (lambda: codifferential(unit()), FORM, -1),
    # q.degree - beta.degree = 1, 2, 3: the second term underflows; a closed form also
    # kills the first
    (lambda: lie_derivative(mv(0, 1, coeff=x(0)), dx(2, coeff=x(2))), FORM, 0),
    (lambda: lie_derivative(mv(0, 1, 2, coeff=x(0)), dx(3, coeff=x(1))), FORM, -1),
    (lambda: lie_derivative(mv(0, 1, 2, 3), scalar_tensor(x(0) * x(1))), FORM, -3),
], ids=[
    "wedge_5_4", "wedge_vol_1", "wedge_multivector_6_3", "contract_2_into_1",
    "contract_3_into_0", "hodge_zero_minus1", "hodge_zero_9", "codifferential_function",
    "codifferential_unit", "lie_difference_1", "lie_difference_2", "lie_difference_3",
])
def test_zero_outside_degrees_0_to_8(operation, variance, degree):
    # the formula's degree, with no branch in the operator: beta.degree - q.degree + 1 for lie
    result = operation()
    assert result.is_zero()
    assert (result.variance, result.degree) == (variance, degree)


class TestLieDerivative:
    def test_constant_form_along_constant_field(self):
        assert lie_derivative(mv(0), dx(0)).is_zero()

    def test_transport_term(self):
        assert lie_derivative(mv(0), dx(1, coeff=x(0))) == dx(1)

    def test_degree_underflow_returns_zero(self):
        assert lie_derivative(mv(0, 1, 2), dx(0)).is_zero()

    def test_top_degree_boundary(self):
        # q = k + 1: only the contraction against d(beta) survives
        q = mv(0, 1, coeff=x(0))
        beta = dx(2, coeff=x(1))
        expected = contract(q, exterior_derivative(beta))
        assert lie_derivative(q, beta) == expected
        # a nonzero case, of the formula's degree 0
        result = lie_derivative(mv(1, 2, coeff=x(0)), dx(2, coeff=x(1)))
        assert result == scalar_tensor(x(0)) and result.degree == 0

    def test_commutation_with_d(self, make_tensor):
        for q_deg in (1, 2, 3):
            for k in (q_deg, q_deg + 2):
                q = make_tensor(MULTIVECTOR, q_deg)
                beta = make_tensor(FORM, k, max_poly_degree=3)
                lhs = exterior_derivative(lie_derivative(q, beta))
                rhs = lie_derivative(q, exterior_derivative(beta)) * ((-1) ** (q_deg + 1))
                assert lhs == rhs


def lie_bracket_components(x_field, y_field):
    xs = {i[0]: p for i, p in x_field.terms.items()}
    ys = {i[0]: p for i, p in y_field.terms.items()}
    comps = {}
    for k in range(8):
        acc = Polynomial.zero()
        for j in range(8):
            if j in xs and k in ys:
                acc = acc + xs[j] * ys[k].diff(j)
            if j in ys and k in xs:
                acc = acc - ys[j] * xs[k].diff(j)
        if not acc.is_zero():
            comps[(k,)] = acc
    return GradedTensor(MULTIVECTOR, 1, comps)


class TestLieDerivativeMultivector:
    def test_against_component_formula(self, make_tensor):
        for _ in range(10):
            a = make_tensor(MULTIVECTOR, 1, max_terms=3)
            b = make_tensor(MULTIVECTOR, 1, max_terms=3)
            assert lie_derivative_multivector(a, b) == lie_bracket_components(a, b)

    def test_acts_on_functions_as_derivation(self):
        field = mv(0, coeff=x(1))
        g = GradedTensor(MULTIVECTOR, 0, {(): x(0) * x(0)})
        assert lie_derivative_multivector(field, g) == GradedTensor(
            MULTIVECTOR, 0, {(): 2 * x(0) * x(1)}
        )

    def test_needs_vector_field(self):
        with pytest.raises(DegreeMismatch):
            lie_derivative_multivector(mv(0, 1), mv(2))
        with pytest.raises(VarianceMismatch):
            lie_derivative_multivector(dx(0), mv(2))


def battery(degree, coeffs=(None, 0, 2)):
    """Small deterministic decomposable multivectors of one degree."""
    bases = {
        1: [(0,), (1,), (3,)],
        2: [(0, 1), (1, 2), (2, 4)],
        3: [(0, 1, 2), (1, 3, 5)],
    }[degree]
    out = []
    for idx in bases:
        for c in coeffs:
            poly = Polynomial.one() if c is None else x(c)
            out.append(GradedTensor(MULTIVECTOR, degree, {idx: poly}))
    return out


class TestSchouten:
    def test_commuting_coordinate_fields(self):
        assert schouten(mv(0), mv(1)).is_zero()

    def test_simple_bracket(self):
        assert schouten(mv(0), mv(1, coeff=x(0))) == mv(1)

    def test_vector_fields_reduce_to_lie_bracket(self, make_tensor):
        for _ in range(15):
            a = make_tensor(MULTIVECTOR, 1, max_terms=3)
            b = make_tensor(MULTIVECTOR, 1, max_terms=3)
            assert schouten(a, b) == lie_bracket_components(a, b)

    def test_vector_antisymmetry_and_jacobi(self, make_tensor):
        for _ in range(6):
            a, b, c = (make_tensor(MULTIVECTOR, 1, max_terms=2) for _ in range(3))
            assert schouten(a, b) == -schouten(b, a)
            total = (
                schouten(a, schouten(b, c))
                + schouten(b, schouten(c, a))
                + schouten(c, schouten(a, b))
            )
            assert total.is_zero()

    def test_decomposition_independence(self):
        # f(X ^ Y) brackets the same however the coefficient is attached
        f = x(0)
        q_first = wedge(mv(1, coeff=f), mv(2))
        q_second = wedge(mv(1), mv(2, coeff=f))
        assert q_first == q_second
        target = mv(0, coeff=x(1) * x(2))
        assert schouten(q_first, target) == schouten(q_second, target)

    # Regression values: exponents verified by the exhaustive battery below.
    # The graded symmetry and Leibniz exponents are q1*q2 and q1*q2+q2; the
    # cyclic Jacobi weights are q_i*(q_k - 1).

    def test_graded_symmetry_exponent_frozen(self):
        for q1, q2 in product((1, 2, 3), repeat=2):
            sign = (-1) ** (q1 * q2)
            for a in battery(q1):
                for b in battery(q2):
                    assert schouten(a, b) == schouten(b, a) * sign

    def test_leibniz_exponent_frozen(self):
        for q1, q2, q3 in product((1, 2), repeat=3):
            sign = (-1) ** (q1 * q2 + q2)
            for a in battery(q1, coeffs=(None, 0)):
                for b in battery(q2, coeffs=(None, 1)):
                    for c in battery(q3, coeffs=(None, 2)):
                        lhs = schouten(a, wedge(b, c))
                        rhs = wedge(schouten(a, b), c) + wedge(b, schouten(a, c)) * sign
                        assert lhs == rhs

    def test_graded_jacobi_exponents_frozen(self):
        combos = [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 2, 3), (2, 2, 3)]
        for q1, q2, q3 in combos:
            s1 = (-1) ** (q1 * (q3 - 1))
            s2 = (-1) ** (q2 * (q1 - 1))
            s3 = (-1) ** (q3 * (q2 - 1))
            for a in battery(q1, coeffs=(0,)):
                for b in battery(q2, coeffs=(1,)):
                    for c in battery(q3, coeffs=(None, 2)):
                        total = (
                            schouten(a, schouten(b, c)) * s1
                            + schouten(b, schouten(c, a)) * s2
                            + schouten(c, schouten(a, b)) * s3
                        )
                        assert total.is_zero()

    def test_degree_zero_reduces_to_directional_derivative(self):
        f = GradedTensor(MULTIVECTOR, 0, {(): x(0)})
        field = mv(0, coeff=x(1))
        assert schouten(field, f) == GradedTensor(MULTIVECTOR, 0, {(): x(1)})
        # a degree-0 first argument: the graded-symmetry exponent q1*q2 is 0
        assert schouten(f, field) == schouten(field, f)

    def test_two_functions_bracket_to_zero(self):
        f = GradedTensor(MULTIVECTOR, 0, {(): x(0)})
        g = GradedTensor(MULTIVECTOR, 0, {(): x(1)})
        assert schouten(f, g).is_zero()

    def test_variance_guard(self):
        with pytest.raises(VarianceMismatch):
            schouten(dx(0), mv(1))


class TestLieIdentities:
    """The two multivector Lie-derivative rules with calibrated exponents."""

    def test_wedge_split_exponent_frozen(self, make_tensor):
        for q1, q2 in product((1, 2), repeat=2):
            for k in (q1 + q2, min(8, q1 + q2 + 2)):
                for _ in range(4):
                    a = make_tensor(MULTIVECTOR, q1, max_terms=3)
                    b = make_tensor(MULTIVECTOR, q2, max_terms=3)
                    beta = make_tensor(FORM, k)
                    lhs = lie_derivative(wedge(a, b), beta)
                    rhs = contract(b, lie_derivative(a, beta)) + lie_derivative(
                        b, contract(a, beta)
                    ) * ((-1) ** q1)
                    assert lhs == rhs

    def test_bracket_contraction_exponent_frozen(self, make_tensor):
        for q1, q2 in product((1, 2), repeat=2):
            for k in (q1 + q2, min(8, q1 + q2 + 2)):
                for _ in range(4):
                    a = make_tensor(MULTIVECTOR, q1, max_terms=3)
                    b = make_tensor(MULTIVECTOR, q2, max_terms=3)
                    beta = make_tensor(FORM, k)
                    lhs = contract(schouten(a, b), beta)
                    rhs = lie_derivative(a, contract(b, beta)) * (
                        (-1) ** (q1 * q2 + q2)
                    ) - contract(b, lie_derivative(a, beta))
                    assert lhs == rhs
