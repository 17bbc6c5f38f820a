from fractions import Fraction

import pytest

from cayley8.calculus import exterior_derivative, codifferential
from cayley8.linalg import ExactMatrix
from cayley8.multiindex import basis
from cayley8.polynomial import Polynomial, x
from cayley8.spin7 import (
    CAYLEY_FUNCTION_CONSTANT,
    NotLocallyCayleyError,
    cayley_2mvf_for,
    cayley_3mvf_for,
    cayley_form,
    cayley_potential,
    decompose,
    eigenspace_dimension,
    identity_report,
    is_locally_cayley,
    map_matrix,
    project2,
    project3,
    project4,
    psi2_inverse,
    psi3_section,
    seven_part_generators,
    three_form_operator_matrix,
    triple_product,
    two_form_operator,
    two_form_operator_matrix,
)
from cayley8.spin7 import _form_vector
from cayley8.tensor import (
    FORM,
    MULTIVECTOR,
    DegreeMismatch,
    GradedTensor,
    contract,
    dx,
    flat,
    hodge,
    inner,
    mv,
    scalar_tensor,
    sharp,
    vol,
    wedge,
)


class TestCayleyForm:
    def test_fourteen_unit_terms(self):
        psi = cayley_form()
        assert len(psi.terms) == 14
        assert all(abs(p.constant_value()) == 1 for p in psi.terms.values())

    def test_leading_coefficient(self):
        assert cayley_form().coefficient((0, 1, 2, 3)) == Polynomial.one()

    def test_odd_presentation_canonicalizes_positive(self):
        # the term printed as -dx^{1526} lands as +1 on (1,2,5,6)
        assert cayley_form().coefficient((1, 2, 5, 6)) == Polynomial.one()

    def test_self_dual(self):
        psi = cayley_form()
        assert hodge(psi) == psi

    def test_closed(self):
        assert exterior_derivative(cayley_form()).is_zero()

    def test_norm_is_computed_fourteen(self):
        psi = cayley_form()
        norm = inner(psi, psi)
        assert norm == Polynomial.constant(14)
        assert wedge(psi, psi) == vol() * norm


class TestProject2:
    def test_components_sum_and_eigen_equations(self, make_tensor):
        for _ in range(6):
            beta = make_tensor(FORM, 2)
            report = project2(beta)
            assert report.residual().is_zero()
            for residual in report.defining_residuals().values():
                assert residual.is_zero()
            for value in report.orthogonality_residuals().values():
                assert value.is_zero()

    def test_pure_eigenvector_input(self):
        t_matrix = two_form_operator_matrix()
        shifted = t_matrix - ExactMatrix.identity(28) * Fraction(-3)
        vec = shifted.nullspace()[0]
        beta = GradedTensor(
            FORM, 2, {idx: vec[n] for n, idx in enumerate(basis(2)) if vec[n]}
        )
        assert two_form_operator(beta) == beta * -3
        report = project2(beta)
        assert report.components["2_7"] == beta
        assert report.components["2_21"].is_zero()

    def test_eigenvalue_multiplicities(self):
        t_matrix = two_form_operator_matrix()
        assert eigenspace_dimension(t_matrix, -3) == 7
        assert eigenspace_dimension(t_matrix, 1) == 21
        assert t_matrix.trace() == 0

    def test_idempotent(self, make_tensor):
        beta = make_tensor(FORM, 2)
        part7 = project2(beta).components["2_7"]
        again = project2(part7)
        assert again.components["2_7"] == part7
        assert again.components["2_21"].is_zero()


class TestProject3:
    def test_vector_contraction_is_pure_eight_part(self):
        psi = cayley_form()
        for i in range(8):
            eta = contract(mv(i), psi)
            report = project3(eta)
            assert report.components["3_8"] == eta
            assert report.components["3_48"].is_zero()

    def test_annihilator_is_pure_48_part(self):
        s_matrix = three_form_operator_matrix()
        vec = s_matrix.nullspace()[0]
        eta = GradedTensor(
            FORM, 3, {idx: vec[n] for n, idx in enumerate(basis(3)) if vec[n]}
        )
        assert wedge(eta, cayley_form()).is_zero()
        report = project3(eta)
        assert report.components["3_8"].is_zero()
        assert report.components["3_48"] == eta

    def test_split_residuals(self, make_tensor):
        for _ in range(6):
            report = project3(make_tensor(FORM, 3))
            assert report.residual().is_zero()
            for residual in report.defining_residuals().values():
                assert residual.is_zero()
            for value in report.orthogonality_residuals().values():
                assert value.is_zero()

    def test_spectrum(self):
        s_matrix = three_form_operator_matrix()
        assert eigenspace_dimension(s_matrix, -7) == 8
        assert eigenspace_dimension(s_matrix, 0) == 48
        assert s_matrix.trace() == -56


class TestProject4:
    def test_cayley_form_is_pure_singlet(self):
        report = project4(cayley_form())
        assert report.components["4_1"] == cayley_form()
        for name in ("4_7", "4_27", "4_35"):
            assert report.components[name].is_zero()

    def test_anti_self_dual_input(self, make_tensor):
        sigma = make_tensor(FORM, 4)
        anti = (sigma - hodge(sigma)) * Fraction(1, 2)
        if anti.is_zero():
            pytest.skip("random draw was self-dual")
        report = project4(anti)
        assert report.components["4_35"] == anti
        for name in ("4_1", "4_7", "4_27"):
            assert report.components[name].is_zero()

    def test_generator_span_dimension(self):
        generators = seven_part_generators()
        assert len(generators) == 28
        matrix = ExactMatrix.from_columns([_form_vector(g, 4) for g in generators])
        assert matrix.rank() == 7

    def test_split_residuals(self, make_tensor):
        for _ in range(4):
            report = project4(make_tensor(FORM, 4))
            assert report.residual().is_zero()
            for residual in report.defining_residuals().values():
                if isinstance(residual, Polynomial):
                    assert residual.is_zero()
                else:
                    assert residual.is_zero()
            for value in report.orthogonality_residuals().values():
                assert value.is_zero()

    def test_generator_input_is_pure_seven_part(self):
        sigma = seven_part_generators()[5]
        report = project4(sigma)
        assert report.components["4_7"] == sigma
        for name in ("4_1", "4_27", "4_35"):
            assert report.components[name].is_zero()


class TestDecomposeDispatch:
    def test_multivector_is_flattened(self):
        report = decompose(mv(0, 1))
        assert report.flattened_from_multivector
        assert report.input == dx(0, 1)

    def test_unsupported_degree(self):
        with pytest.raises(DegreeMismatch):
            decompose(dx(0))


class TestMapMatrices:
    def test_shapes_and_ranks(self):
        expectations = {1: ((56, 8), 8, 0), 2: ((28, 28), 28, 0), 3: ((8, 56), 8, 48)}
        for k, (shape, rank, nullity) in expectations.items():
            matrix = map_matrix(k)
            assert matrix.shape == shape
            assert matrix.rank() == rank
            assert matrix.nullity() == nullity

    def test_invalid_degree(self):
        with pytest.raises(DegreeMismatch):
            map_matrix(4)

    def test_degree_two_matrix_is_wedge_operator(self):
        assert map_matrix(2) == two_form_operator_matrix()

    def test_kernel_matches_wedge_annihilator(self):
        kernel = ExactMatrix.from_columns(map_matrix(3).nullspace())
        psi = cayley_form()
        columns = []
        for idx in basis(3):
            image = wedge(GradedTensor(FORM, 3, {idx: 1}), psi)
            columns.append(_form_vector(image, 7))
        annihilator = ExactMatrix.from_columns(
            ExactMatrix.from_columns(columns).nullspace()
        )
        assert kernel.column_span_equals(annihilator)

    def test_matrix_agrees_with_contract(self, make_tensor):
        matrix = map_matrix(2)
        q = make_tensor(MULTIVECTOR, 2, max_poly_degree=0)
        coords = [Fraction(0)] * 28
        for n, idx in enumerate(basis(2)):
            coeff = q.terms.get(idx)
            if coeff is not None:
                coords[n] = coeff.constant_value()
        image_coords = (matrix @ ExactMatrix.from_columns([coords])).column(0)
        image = GradedTensor(
            FORM, 2, {idx: image_coords[n] for n, idx in enumerate(basis(2))}
        )
        assert image == contract(q, cayley_form())


class TestInverseAndSection:
    def test_psi2_inverse_roundtrip(self, make_tensor):
        psi = cayley_form()
        for _ in range(6):
            beta = make_tensor(FORM, 2)
            assert contract(psi2_inverse(beta), psi) == beta
            q = make_tensor(MULTIVECTOR, 2)
            assert psi2_inverse(contract(q, psi)) == q

    def test_psi2_inverse_matches_matrix_inverse(self, make_tensor):
        # independent oracle: apply the exact 28x28 inverse to the coordinates
        inverse = map_matrix(2).inverse()
        beta = make_tensor(FORM, 2, max_poly_degree=0)
        coords = [Fraction(0)] * 28
        for n, idx in enumerate(basis(2)):
            coeff = beta.terms.get(idx)
            if coeff is not None:
                coords[n] = coeff.constant_value()
        solved = (inverse @ ExactMatrix.from_columns([coords])).column(0)
        expected = GradedTensor(
            MULTIVECTOR, 2, {idx: solved[n] for n, idx in enumerate(basis(2))}
        )
        assert psi2_inverse(beta) == expected

    def test_eigenspace_specialization(self):
        t_matrix = two_form_operator_matrix()
        shifted = t_matrix - ExactMatrix.identity(28) * Fraction(-3)
        vec = shifted.nullspace()[0]
        beta = GradedTensor(
            FORM, 2, {idx: vec[n] for n, idx in enumerate(basis(2)) if vec[n]}
        )
        assert psi2_inverse(beta) == sharp(beta) * Fraction(-1, 3)

    def test_psi3_section_hits_every_basis_one_form(self):
        psi = cayley_form()
        for i in range(8):
            assert contract(psi3_section(dx(i)), psi) == dx(i)

    def test_psi3_section_zero(self):
        assert psi3_section(GradedTensor.zero(FORM, 1)).is_zero()

    def test_psi3_section_is_pure_eight_part(self, make_tensor):
        alpha = make_tensor(FORM, 1)
        report = project3(flat(psi3_section(alpha)))
        assert report.components["3_48"].is_zero()


class TestTripleProduct:
    def test_coordinate_example(self):
        assert contract(mv(0, 1, 2), cayley_form()) == dx(3)
        assert triple_product(mv(0, 1, 2)) == mv(3)

    def test_alternation_kills_repeats(self):
        degenerate = wedge(wedge(mv(0), mv(0)), mv(1))
        assert degenerate.is_zero()

    def test_norm_preserved_on_decomposables(self, rng):
        from cayley8.verify import random_decomposable

        for _ in range(8):
            q = random_decomposable(rng, 3)
            image = triple_product(q)
            assert inner(image, image) == inner(flat(q), flat(q))


class TestCayleyPredicates:
    def test_constant_coefficients_locally_cayley(self):
        assert is_locally_cayley(mv(0, 1))

    def test_non_closed_contraction_detected(self):
        q = mv(0, 1, coeff=x(2))
        assert not is_locally_cayley(q)

    def test_section_of_exact_form_is_cayley(self, make_poly):
        f = make_poly(3)
        assert is_locally_cayley(psi3_section(exterior_derivative(scalar_tensor(f))))

    def test_potential_of_coordinate_block(self):
        assert cayley_potential(mv(0, 1, 2)) == scalar_tensor(x(3))

    def test_potential_zero(self):
        assert cayley_potential(GradedTensor.zero(MULTIVECTOR, 2)).is_zero()

    def test_potential_rejects_non_cayley(self):
        q = mv(0, 1, coeff=x(2))
        with pytest.raises(NotLocallyCayleyError) as info:
            cayley_potential(q)
        assert not info.value.derivative.is_zero()

    def test_potential_roundtrip(self, make_tensor):
        psi = cayley_form()
        for _ in range(4):
            gamma = make_tensor(FORM, 1)
            q = psi2_inverse(exterior_derivative(gamma))
            alpha = cayley_potential(q)
            assert exterior_derivative(alpha) == exterior_derivative(gamma)
            assert exterior_derivative(alpha) == contract(q, psi)


class TestCayleySolvers:
    def test_closed_one_form_gives_zero(self):
        assert cayley_2mvf_for(dx(4)).is_zero()

    def test_two_solver_example(self):
        q = cayley_2mvf_for(dx(0, coeff=x(1)))
        assert contract(q, cayley_form()) == dx(0, 1) * -1

    def test_two_solver_derivative_constraint(self, make_tensor):
        for _ in range(6):
            alpha = make_tensor(FORM, 1, max_poly_degree=3)
            q = cayley_2mvf_for(alpha)
            report = project2(flat(q))
            lhs = exterior_derivative(report.components["2_7"]) * 3
            assert lhs == exterior_derivative(report.components["2_21"])

    def test_two_solver_norm_identity_in_x(self, make_tensor):
        psi = cayley_form()
        for _ in range(4):
            alpha = make_tensor(FORM, 1, max_poly_degree=2)
            q = cayley_2mvf_for(alpha)
            report = identity_report("norm_split_minus27", q)
            assert report["residual"].is_zero()

    def test_three_solver_constant_function(self):
        assert cayley_3mvf_for(Polynomial.constant(5)).is_zero()

    def test_three_solver_example(self):
        q = cayley_3mvf_for(x(3))
        assert contract(q, cayley_form()) == dx(3)

    def test_three_solver_norm_identity(self, make_poly):
        for _ in range(6):
            f = make_poly(3)
            q = cayley_3mvf_for(f)
            df = exterior_derivative(scalar_tensor(f))
            assert inner(df, df) == 7 * inner(flat(q), flat(q))

    def test_three_solver_coexact_identity(self, make_poly):
        psi = cayley_form()
        for _ in range(4):
            f = make_poly(3)
            q = cayley_3mvf_for(f)
            assert codifferential(wedge(scalar_tensor(f), psi)) == flat(q) * 7

    def test_three_solver_kernel_freedom(self, make_tensor, make_poly):
        psi = cayley_form()
        eta = make_tensor(FORM, 3)
        kernel_part = sharp(project3(eta).components["3_48"])
        f = make_poly()
        q = cayley_3mvf_for(f, kernel_part=kernel_part)
        assert contract(q, psi) == exterior_derivative(scalar_tensor(f))

    def test_three_solver_rejects_bad_kernel_part(self):
        with pytest.raises(ValueError):
            cayley_3mvf_for(x(0), kernel_part=mv(0, 1, 2))


class TestIdentityReport:
    def test_seven_star_basis(self):
        assert identity_report("seven_star", mv(0))["residual"].is_zero()

    def test_seven_norm_random(self, make_tensor):
        x_field = make_tensor(MULTIVECTOR, 1)
        assert identity_report("seven_norm", x_field)["residual"].is_zero()

    def test_minus6_basis(self):
        assert identity_report("decomposable_minus6", mv(0), mv(1))["residual"].is_zero()

    def test_norm_split_three_basis_values(self):
        report = identity_report("norm_split_three", mv(0, 1, 2))
        assert report["eight_part"].is_zero()
        assert report["large_part"].is_zero()
        split = project3(flat(mv(0, 1, 2)))
        assert inner(split.components["3_8"], split.components["3_8"]) == Fraction(1, 7)
        assert inner(split.components["3_48"], split.components["3_48"]) == Fraction(6, 7)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            identity_report("no_such_identity")

    def test_cayley_fn_residuals(self, make_poly, make_tensor):
        f = make_poly(3)
        eta = make_tensor(FORM, 3)
        kernel_part = sharp(project3(eta).components["3_48"])
        q = cayley_3mvf_for(f, kernel_part=kernel_part)
        df = exterior_derivative(scalar_tensor(f))
        report = identity_report("cayley_fn", q, df)
        assert report["eight_part_eq"].is_zero()
        assert report["scalar"].is_zero()
        assert report["image"].is_zero()


class TestCayleyFunctionConstant:
    def test_oracle_determines_constant_one(self, make_poly, make_tensor):
        """Brute-force ratio oracle: the eight-form is |df|^2 vol exactly."""
        psi = cayley_form()
        full = tuple(range(8))
        ratios = set()
        for _ in range(8):
            f = make_poly(3)
            df = exterior_derivative(scalar_tensor(f))
            if df.is_zero():
                continue
            eta = make_tensor(FORM, 3)
            q = cayley_3mvf_for(f, kernel_part=sharp(project3(eta).components["3_48"]))
            lhs = wedge(flat(q), wedge(contract(q, psi), psi))
            norm = inner(df, df)
            # lhs = c * norm * vol for a single rational c: solve on a monomial
            coeff = lhs.coefficient(full)
            exp = next(iter(norm.terms))
            ratios.add(coeff.coefficient(exp) / norm.terms[exp])
            assert coeff == norm * CAYLEY_FUNCTION_CONSTANT
        assert ratios == {CAYLEY_FUNCTION_CONSTANT}
        assert CAYLEY_FUNCTION_CONSTANT == 1
        assert CAYLEY_FUNCTION_CONSTANT != 7
