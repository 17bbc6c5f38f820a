import dataclasses
import random
from fractions import Fraction

import pytest

import reference_spin7
from cayley8 import spin7
from cayley8.calculus import exterior_derivative, codifferential
from cayley8.linalg import ExactMatrix
from cayley8.multiindex import basis
from cayley8.polynomial import Polynomial, x
from cayley8.spin7 import (
    CAYLEY_FUNCTION_CONSTANT,
    DecompositionReport,
    NotLocallyCayleyError,
    cayley2_constraint,
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
    structure_matrix,
    three_form_operator_matrix,
    triple_product,
    two_form_operator,
    two_form_operator_matrix,
)
from cayley8.tensor import (
    FORM,
    MULTIVECTOR,
    DegreeMismatch,
    GradedTensor,
    VarianceMismatch,
    apply_matrix,
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
        vec = shifted.nullspace().transpose().rows[0]
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
        assert eigenspace_dimension(t_matrix, Fraction(-3)) == 7
        assert t_matrix.trace() == 0

    @pytest.mark.parametrize("value", [1.0, 0.5, "-3", True, False])
    def test_eigenvalue_must_be_exact(self, value):
        with pytest.raises(TypeError, match=f"expected an exact rational, got {type(value).__name__}"):
            eigenspace_dimension(two_form_operator_matrix(), value)

    def test_eigenspace_of_a_non_square_matrix(self):
        with pytest.raises(ValueError, match="non-square 56x8"):
            eigenspace_dimension(map_matrix(1), 0)

    def test_projectors_equal_identity_arithmetic(self, make_tensor):
        t_matrix = two_form_operator_matrix()
        assert spin7._projector("2_7") == (ExactMatrix.identity(28) - t_matrix) * Fraction(1, 4)
        # pi_35 = (I - star)/2, on every basis four-form and on seeded ones
        for sigma in [dx(*idx) for idx in basis(4)] + [make_tensor(FORM, 4) for _ in range(8)]:
            assert project4(sigma).components["4_35"] == (sigma - hodge(sigma)) * Fraction(1, 2)

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
        vec = s_matrix.nullspace().transpose().rows[0]
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
        assert structure_matrix(generators, 4).rank() == 7

    def test_generator_gram_matrix_is_32_times_a_projector(self):
        # the identity behind project4's 7-part: 1/32 sum_g g <g, .>
        generators = seven_part_generators()
        gram = ExactMatrix([[inner(a, b).constant_value() for b in generators] for a in generators])
        assert gram @ gram == gram * 32
        assert {gram.rows[i][i] for i in range(28)} == {8}

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


@pytest.mark.parametrize("project, rest", [(project2, "2_21"), (project3, "3_48"), (project4, "4_27")])
def test_remainder_pairings_read_through_the_input(project, rest, make_tensor, monkeypatch):
    # with a zero sum residual no product reads the dense remainder: its norm and its pairings are
    # linear sums of <in, in>, the <a, in> and the pairings among the other parts, and each product
    # is taken once however often the report is read
    report = project(make_tensor(FORM, int(rest[0])))
    labels = {id(part): name for name, part in report.components.items()} | {id(report.input): "input"}
    pairs = []
    original = spin7.inner

    def counted(a, b):
        pairs.append((labels.get(id(a)), labels.get(id(b))))
        return original(a, b)

    monkeypatch.setattr(spin7, "inner", counted)
    for _ in range(2):
        report.norms()
        report.residuals()
    assert [pair for pair in pairs if rest in pair] == []
    assert sorted(a for a, b in pairs if b == "input" and a != "input") == sorted(set(report.components) - {rest})
    assert pairs.count(("input", "input")) == 1
    memo = [pair for pair in pairs if None not in pair]
    assert len(memo) == len(set(memo))


def test_remainder_off_the_sum_is_paired_directly(monkeypatch):
    # a 48-part one term off makes the sum residual nonzero, the gate of the through-the-input rule:
    # the part's norm is then its own square, and norm_split_three sees the broken part
    original = spin7.project3

    def broken(eta):
        report = original(eta)
        return DecompositionReport(eta, {**report.components, "3_48": report.components["3_48"] + dx(0, 1, 2)})

    monkeypatch.setattr(spin7, "project3", broken)
    report = spin7.project3(dx(0, 1, 2))
    assert not report.residual().is_zero()
    part = report.components["3_48"]
    assert report.norms()["3_48"] == inner(part, part)
    assert not identity_report("norm_split_three", mv(0, 1, 2))["large_part"].is_zero()


@pytest.mark.parametrize("seed", range(4))
def test_norm_split_three_squares_its_input_once(seed, monkeypatch):
    # |Q|^2 is read from the report's memo, where the norms took it
    from cayley8.verify import random_decomposable

    q = mv(0, 1, 2) if seed == 0 else random_decomposable(random.Random(seed), 3)
    form = flat(q)
    squares = []
    original = spin7.inner

    def counted(a, b):
        if a is b and a == form:
            squares.append(a)
        return original(a, b)

    monkeypatch.setattr(spin7, "inner", counted)
    report = identity_report("norm_split_three", q)
    assert all(value.is_zero() for value in report.values())
    assert len(squares) == 1


#: Each component of project2/3/4 and the defining residuals that read it.
DEFINING_RESIDUALS = {
    "2_7": ["2_7"],
    "2_21": ["2_21"],
    "3_8": ["3_8"],
    "3_48": ["3_48"],
    "4_1": ["4_1"],
    "4_7": ["4_7", "4_7_selfdual"],
    "4_27": ["4_27_selfdual", "4_27_wedge_psi", "4_27_wedge_7part"],
    "4_35": ["4_35"],
}


class TestDefiningResidualsCanFail:
    @pytest.mark.parametrize("name", sorted(DEFINING_RESIDUALS))
    def test_perturbed_component(self, name, make_tensor):
        degree = int(name[0])
        report = decompose(make_tensor(FORM, degree))
        assert all(r.is_zero() for r in report.defining_residuals().values())
        delta = dx(*range(degree))
        if degree == 4:  # dx0123 has no 7-part
            delta = delta + seven_part_generators()[0]
        part = report.components[name] + delta
        perturbed = dataclasses.replace(report, components={**report.components, name: part})
        residuals = perturbed.defining_residuals()
        assert sorted(residuals) == sorted(r for n in report.components for r in DEFINING_RESIDUALS[n])
        for residual_name, residual in residuals.items():
            if residual_name in DEFINING_RESIDUALS[name]:
                assert not residual.is_zero(), residual_name
            else:
                assert residual.is_zero(), residual_name


class TestDecomposeDispatch:
    def test_multivector_is_flattened(self):
        report = decompose(mv(0, 1))
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

    def test_bool_degree_refused(self):
        map_matrix(1)  # the cache must not answer for True
        with pytest.raises(DegreeMismatch, match="not True"):
            map_matrix(True)

    def test_float_degree_refused(self):
        map_matrix(1)
        with pytest.raises(DegreeMismatch, match="not 1.0"):
            map_matrix(1.0)

    def test_structure_matrix_entries(self):
        images = [dx(0, 1) * Fraction(3, 4) - dx(1, 2) * 2, GradedTensor.zero(FORM, 2), dx(0, 2) * Fraction(-1, 6)]
        matrix = structure_matrix(images, 2)
        assert matrix.shape == (28, 3)
        expected = [[Fraction(0)] * 3 for _ in range(28)]
        expected[basis(2).index((0, 1))][0] = Fraction(3, 4)
        expected[basis(2).index((1, 2))][0] = Fraction(-2)
        expected[basis(2).index((0, 2))][2] = Fraction(-1, 6)
        assert matrix.rows == expected
        with pytest.raises(ValueError, match="not constant"):
            structure_matrix([dx(0, 1, coeff=x(3))], 2)

    def test_degree_two_matrix_is_wedge_operator(self):
        t_matrix = reference_spin7.kernel_matrix(reference_spin7.two_form_operator, 2, 2)
        assert two_form_operator_matrix() == t_matrix

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matrix_is_star_of_wedge_with_psi(self, k):
        # Q _| Psi = star(flat(Q) ^ star(Psi)) with sign +1 on four-forms, and star(Psi) = Psi
        assert map_matrix(k) == reference_spin7.kernel_matrix(reference_spin7.wedge_star, k, 4 - k)

    def test_kernel_matches_wedge_annihilator(self):
        kernel = map_matrix(3).nullspace()
        psi = cayley_form()
        wedge_map = structure_matrix([wedge(GradedTensor(FORM, 3, {idx: 1}), psi) for idx in basis(3)], 7)
        assert kernel.shape == wedge_map.nullspace().shape == (56, 48)
        assert kernel.column_span_equals(wedge_map.nullspace())

    def test_matrix_agrees_with_contract(self, make_tensor):
        matrix = map_matrix(2)
        q = make_tensor(MULTIVECTOR, 2, max_poly_degree=0)
        coords = [Fraction(0)] * 28
        for n, idx in enumerate(basis(2)):
            coeff = q.terms.get(idx)
            if coeff is not None:
                coords[n] = coeff.constant_value()
        image_coords = (matrix @ ExactMatrix([[c] for c in coords])).transpose().rows[0]
        image = GradedTensor(
            FORM, 2, {idx: image_coords[n] for n, idx in enumerate(basis(2))}
        )
        assert image == contract(q, cayley_form())


class TestCachedOperatorMatrices:
    def test_three_form_operator_factors_through_one_forms(self):
        # S = M1 M3, M3 = star(Psi ^ .) on three-forms and M1 on one-forms, against the kernel build
        m1, m3 = map_matrix(1), map_matrix(3)
        assert (m1.shape, m3.shape) == ((56, 8), (8, 56))
        s_matrix = reference_spin7.kernel_matrix(reference_spin7.three_form_operator, 3, 3)
        assert three_form_operator_matrix() == m1 @ m3 == s_matrix

    def test_two_form_parts_are_complementary_projectors(self, make_tensor):
        # only the 7-part has a matrix; the 21-part is what it leaves
        p7 = spin7._projector("2_7")
        assert p7 @ p7 == p7
        assert (p7.rank(), (ExactMatrix.identity(28) - p7).rank()) == (7, 21)
        beta = make_tensor(FORM, 2)
        assert project2(beta).components["2_21"] == beta - apply_matrix(p7, beta, 2, FORM)
        with pytest.raises(KeyError):
            spin7._projector("2_21")

    def test_four_form_parts_are_orthogonal_projectors(self):
        # only the 7-part has a matrix; the 35-part goes through the hodge kernel
        p7 = spin7._projector("4_7")
        assert p7 @ p7 == p7 and p7 == p7.transpose() and p7.rank() == 7
        # its image is self-dual, so it is orthogonal to the 35-part (I - star)/2
        star = structure_matrix((hodge(dx(*idx)) for idx in basis(4)), 4)
        assert p7 @ star == p7
        assert spin7._generator_pairings().transpose() == structure_matrix(seven_part_generators(), 4)
        for name in ("3_8", "4_35"):
            with pytest.raises(KeyError):
                spin7._projector(name)

    def test_inverse_and_section_matrices(self):
        assert spin7._psi2_inverse_matrix() @ map_matrix(2) == ExactMatrix.identity(28)
        # psi3_section applies map_matrix(1) to -1/7 of its one-form: a right inverse of map_matrix(3)
        assert map_matrix(3) @ (map_matrix(1) * Fraction(-1, 7)) == ExactMatrix.identity(8)

    def test_psi2_inverse_matrix_is_read_off_t_without_elimination(self, monkeypatch):
        # T^2 + 2T - 3I = 0 gives T^-1 = (T + 2I)/3, so the build eliminates nothing
        def refuse(self):
            raise AssertionError("psi2^-1 was built by elimination")

        spin7._psi2_inverse_matrix.cache_clear()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(ExactMatrix, "rref", refuse)
                built = spin7._psi2_inverse_matrix()
        finally:
            spin7._psi2_inverse_matrix.cache_clear()
        assert built == map_matrix(2).inverse()

    def test_map_matrix_relations(self):
        m1 = map_matrix(1)
        assert map_matrix(3) == m1.transpose() * -1
        assert map_matrix(2) == map_matrix(2).transpose()
        assert m1.transpose() @ m1 == ExactMatrix.identity(8) * 7
        # psi2_inverse's sharp(-beta_7/3 + beta_21) as one matrix: map_matrix(2) is -3 on
        # the 7-part and 1 on the 21-part, so (map_matrix(2) + 2)/3 is -1/3 and 1 there
        expected = (map_matrix(2) + ExactMatrix.identity(28) * 2) * Fraction(1, 3)
        assert spin7._psi2_inverse_matrix() == expected

    def test_operators_reject_other_degrees(self):
        for op, degree in ((two_form_operator, 3), (psi2_inverse, 1), (psi3_section, 2)):
            with pytest.raises(DegreeMismatch):
                op(dx(*range(degree)))


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
        solved = (inverse @ ExactMatrix([[c] for c in coords])).transpose().rows[0]
        expected = GradedTensor(
            MULTIVECTOR, 2, {idx: solved[n] for n, idx in enumerate(basis(2))}
        )
        assert psi2_inverse(beta) == expected

    def test_eigenspace_specialization(self):
        t_matrix = two_form_operator_matrix()
        shifted = t_matrix - ExactMatrix.identity(28) * Fraction(-3)
        vec = shifted.nullspace().transpose().rows[0]
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

    @pytest.mark.parametrize("predicate", [is_locally_cayley, cayley_potential])
    @pytest.mark.parametrize(
        "q, error",
        [(dx(0, 1), VarianceMismatch), (mv(0, 1, 2, 3), DegreeMismatch), (GradedTensor.zero(MULTIVECTOR, 0), DegreeMismatch)],
    )
    def test_refuses_anything_but_a_field_of_degree_1_to_3(self, predicate, q, error):
        with pytest.raises(error):
            predicate(q)

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

    def test_cayley2_constraint_is_minus_d_of_the_contraction(self, make_tensor):
        # Q _| Psi = T(flat Q) = -3 Q_7 + Q_21, so the constraint is -d(Q _| Psi)
        for _ in range(4):
            q = make_tensor(MULTIVECTOR, 2, max_poly_degree=2)
            assert cayley2_constraint(q) == -exterior_derivative(contract(q, cayley_form()))
        assert not cayley2_constraint(mv(1, 2, coeff=x(0))).is_zero()

    def test_cayley2_constraint_is_the_papers_difference_of_two_derivatives(self, make_tensor):
        # one d of 3 Q_7 - Q_21, by linearity, against 3 d(Q_7) - d(Q_21) on fields that are not locally Cayley
        fields = [make_tensor(MULTIVECTOR, 2, max_poly_degree=3) for _ in range(8)] + [mv(1, 2, coeff=x(0))]
        fields = [q for q in fields if not is_locally_cayley(q)]
        assert len(fields) >= 5
        for q in fields:
            parts = project2(flat(q)).components
            paper = exterior_derivative(parts["2_7"]) * 3 - exterior_derivative(parts["2_21"])
            assert not paper.is_zero()
            assert cayley2_constraint(q) == paper
            assert cayley2_constraint(q).degree == paper.degree == 3

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
        q = cayley_3mvf_for(f) + kernel_part
        assert contract(q, psi) == exterior_derivative(scalar_tensor(f))

    def test_cayley_fn_image_catches_bad_kernel_part(self):
        # mv(0, 1, 2) _| Psi = dx3 is no kernel element: the image residual reads it
        image = identity_report("cayley_fn", cayley_3mvf_for(x(0)) + mv(0, 1, 2), dx(0))["image"]
        assert image == dx(3)


class TestIdentityReport:
    def test_seven_star_basis(self):
        assert identity_report("seven_star", mv(0))["residual"].is_zero()

    def test_seven_norm_random(self, make_tensor):
        x_field = make_tensor(MULTIVECTOR, 1)
        assert identity_report("seven_norm", x_field)["residual"].is_zero()

    def test_minus6_basis(self):
        assert identity_report("decomposable_minus6", mv(0), mv(1))["residual"].is_zero()

    @pytest.mark.parametrize("error, u, v", [
        (DegreeMismatch, mv(0, 1), mv(2)),
        (DegreeMismatch, mv(2), mv(0, 1)),
        (VarianceMismatch, dx(0), mv(1)),
        (VarianceMismatch, mv(0), dx(1)),
    ])
    def test_minus6_rejects_other_inputs(self, error, u, v):
        # a wrong shape is refused, not reported as a failed identity
        with pytest.raises(error):
            identity_report("decomposable_minus6", u, v)

    def test_norm_split_three_basis_values(self):
        report = identity_report("norm_split_three", mv(0, 1, 2))
        assert report["eight_part"].is_zero()
        assert report["large_part"].is_zero()
        split = project3(flat(mv(0, 1, 2)))
        assert inner(split.components["3_8"], split.components["3_8"]) == Fraction(1, 7)
        assert inner(split.components["3_48"], split.components["3_48"]) == Fraction(6, 7)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown identity 'no_such_identity'"):
            identity_report("no_such_identity")

    @pytest.mark.parametrize("name, count", [
        ("seven_star", 1),
        ("seven_norm", 1),
        ("decomposable_minus6", 2),
        ("norm_split_minus27", 1),
        ("norm_split_three", 1),
        ("cayley_fn", 2),
    ])
    def test_wrong_input_count_names_the_identity(self, name, count):
        for given in (0, count + 1):
            with pytest.raises(TypeError, match=f"^identity '{name}' takes {count} tensors, got {given}$"):
                identity_report(name, *[mv(0)] * given)

    def test_cayley_fn_residuals(self, make_poly, make_tensor):
        f = make_poly(3)
        eta = make_tensor(FORM, 3)
        kernel_part = sharp(project3(eta).components["3_48"])
        q = cayley_3mvf_for(f) + kernel_part
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
            q = cayley_3mvf_for(f) + sharp(project3(eta).components["3_48"])
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
