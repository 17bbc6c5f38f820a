"""Acceptance suite: every criterion exact (zero tolerance), one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.  Random instances are seeded, sparse (at most 5 terms,
polynomial degree at most 2, coefficients bounded by 9) and every assertion
is on exact rationals.
"""

import random
from fractions import Fraction
from itertools import product

from cayley8.calculus import (
    codifferential,
    exterior_derivative,
    homotopy_primitive,
    lie_derivative,
    schouten,
)
from cayley8.multiindex import DIM, basis
from cayley8.polynomial import Polynomial, x
from cayley8.spin7 import (
    CAYLEY_FUNCTION_CONSTANT,
    cayley_2mvf_for,
    cayley_3mvf_for,
    cayley_form,
    eigenspace_dimension,
    identity_report,
    is_locally_cayley,
    map_matrix,
    project2,
    project3,
    psi2_inverse,
    structure_matrix,
    triple_product,
)
from cayley8.tensor import (
    FORM,
    MULTIVECTOR,
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
from cayley8.verify import (
    contraction_oracle,
    random_decomposable,
    random_polynomial,
    random_tensor,
    random_vector_field,
    run_checks,
)

CASES = 64


def _rng(tag):
    return random.Random(f"acceptance:{tag}")


def _mass(*items):
    total = Fraction(0)
    for item in items:
        if isinstance(item, GradedTensor):
            total += item.coeff_l1()
        elif isinstance(item, Polynomial):
            total += item.abs_coeff_sum()
        else:
            total += abs(Fraction(item))
    return total


def _report(number, description, residual, extra=""):
    status = "PASS" if residual == 0 else "FAIL"
    suffix = f" [{extra}]" if extra else ""
    print(f"{status} criterion {number}: {description} (residual {residual}){suffix}")
    assert residual == 0, f"criterion {number} failed: {description}, residual {residual}"


def _sign(exponent):
    return 1 if exponent % 2 == 0 else -1


def test_criterion_01_structure_constants():
    psi = cayley_form()
    residual = _mass(len(psi.terms) - 14)
    residual += _mass(hodge(psi) - psi)
    residual += _mass(exterior_derivative(psi))
    norm = inner(psi, psi)
    residual += _mass(norm - 14)
    residual += _mass(wedge(psi, psi) - vol() * norm)
    _report(1, "structure constants of the Cayley form", residual)


def test_criterion_02_map_ranks():
    residual = _mass(map_matrix(1).rank() - 8)
    degree2 = map_matrix(2)
    residual += _mass(degree2.rank() - 28)
    residual += _mass(eigenspace_dimension(degree2, -3) - 7)
    residual += _mass(eigenspace_dimension(degree2, 1) - 21)
    degree3 = map_matrix(3)
    residual += _mass(degree3.rank() - 8, degree3.nullity() - 48)
    psi = cayley_form()
    wedge_map = structure_matrix([wedge(GradedTensor(FORM, 3, {idx: 1}), psi) for idx in basis(3)], 7)
    residual += _mass(0 if degree3.nullspace().column_span_equals(wedge_map.nullspace()) else 1)
    _report(2, "contraction-map ranks, spectrum, and kernel", residual)


def test_criterion_03_minus_seven_constant():
    rng = _rng("c3")
    psi = cayley_form()
    residual = Fraction(0)
    samples = [dx(i) for i in range(DIM)]
    samples += [random_tensor(rng, FORM, 1) for _ in range(CASES)]
    for alpha in samples:
        residual += _mass(hodge(wedge(psi, hodge(wedge(psi, alpha)))) + alpha * 7)
    _report(3, "double wedge-star on one-forms is -7", residual)


def test_criterion_04_two_form_inverse():
    rng = _rng("c4")
    psi = cayley_form()
    residual = Fraction(0)
    for _ in range(CASES):
        beta = random_tensor(rng, FORM, 2)
        residual += _mass(contract(psi2_inverse(beta), psi) - beta)
        q = random_tensor(rng, MULTIVECTOR, 2)
        residual += _mass(psi2_inverse(contract(q, psi)) - q)
    _report(4, "two-form contraction inverse, both directions", residual)


def test_criterion_05_contraction_identities():
    rng = _rng("c5")
    residual = Fraction(0)
    for l in range(1, DIM + 1):
        for k in range(l, DIM + 1):
            for _ in range(CASES):
                q = random_tensor(rng, MULTIVECTOR, l, max_terms=3)
                beta = random_tensor(rng, FORM, k, max_terms=3)
                qf = flat(q)
                lhs = contract(q, beta)
                residual += _mass(
                    lhs - hodge(wedge(qf, hodge(beta))) * _sign((k - l) * (DIM - k))
                )
                residual += _mass(
                    hodge(lhs) - wedge(qf, hodge(beta)) * _sign(l * (k - l))
                )
    for l in range(1, DIM + 1):
        for k in range(0, DIM - l + 1):
            for _ in range(CASES):
                q = random_tensor(rng, MULTIVECTOR, l, max_terms=3)
                beta = random_tensor(rng, FORM, k, max_terms=3)
                qf = flat(q)
                lhs = contract(q, hodge(beta))
                residual += _mass(lhs - hodge(wedge(qf, beta)) * _sign(k * l))
                residual += _mass(
                    hodge(lhs)
                    - wedge(qf, beta) * _sign(l * (DIM - k - l) + k * (DIM - k))
                )
    for _ in range(CASES):
        k = rng.randint(1, DIM)
        l = rng.randint(1, k)
        q = random_tensor(rng, MULTIVECTOR, l, max_terms=4)
        beta = random_tensor(rng, FORM, k, max_terms=4)
        residual += _mass(contract(q, beta) - contraction_oracle(q, beta))
    _report(5, "four contraction identities plus expansion oracle", residual)


def test_criterion_06_pointwise_identity_suite():
    rng = _rng("c6")
    psi = cayley_form()
    residual = Fraction(0)
    vectors = [mv(i) for i in range(DIM)]
    vectors += [random_vector_field(rng) for _ in range(CASES)]
    for x_field in vectors:
        residual += _mass(identity_report("seven_star", x_field)["residual"])
        residual += _mass(identity_report("seven_norm", x_field)["residual"])
    residual += _mass(identity_report("decomposable_minus6", mv(0), mv(1))["residual"])
    for _ in range(CASES):
        u, v = random_vector_field(rng), random_vector_field(rng)
        residual += _mass(identity_report("decomposable_minus6", u, v)["residual"])
        q2 = random_tensor(rng, MULTIVECTOR, 2)
        residual += _mass(identity_report("norm_split_minus27", q2)["residual"])
    for _ in range(CASES):
        f = random_polynomial(rng, max_degree=3)
        q3 = cayley_3mvf_for(f)
        df = exterior_derivative(scalar_tensor(f))
        residual += _mass(codifferential(wedge(scalar_tensor(f), psi)) - flat(q3) * 7)
        residual += _mass(inner(df, df) - inner(flat(q3), flat(q3)) * 7)
    split = identity_report("norm_split_three", mv(0, 1, 2))
    residual += _mass(split["eight_part"], split["large_part"])
    for _ in range(CASES):
        q3 = random_decomposable(rng, 3)
        split = identity_report("norm_split_three", q3)
        residual += _mass(split["eight_part"], split["large_part"])
    _report(6, "pointwise identity suite (7*, 7-norm, -6, -27/+1, 7-coexact, 1/7+6/7)", residual)


def test_criterion_07_coordinate_example():
    residual = _mass(contract(mv(0, 1, 2), cayley_form()) - dx(3))
    residual += _mass(triple_product(mv(0, 1, 2)) - mv(3))
    _report(7, "coordinate three-multivector contracts to dx3", residual)


def test_criterion_08_calculus():
    rng = _rng("c8")
    psi = cayley_form()
    residual = Fraction(0)
    for _ in range(CASES):
        beta = random_tensor(rng, FORM, rng.randint(0, DIM), max_poly_degree=3)
        residual += _mass(exterior_derivative(exterior_derivative(beta)))
        gamma = random_tensor(rng, FORM, rng.randint(2, DIM), max_poly_degree=3)
        residual += _mass(codifferential(codifferential(gamma)))
    for k in range(1, DIM + 1):
        for _ in range(max(1, CASES // DIM)):
            beta = random_tensor(rng, FORM, k, max_poly_degree=3)
            lhs = exterior_derivative(homotopy_primitive(beta)) + homotopy_primitive(
                exterior_derivative(beta)
            )
            residual += _mass(lhs - beta)
    for _ in range(CASES):
        q_deg = rng.randint(1, 3)
        q = random_tensor(rng, MULTIVECTOR, q_deg, max_terms=3)
        beta = random_tensor(rng, FORM, rng.randint(q_deg - 1, DIM), max_poly_degree=2)
        lhs = exterior_derivative(lie_derivative(q, beta))
        residual += _mass(
            lhs - lie_derivative(q, exterior_derivative(beta)) * _sign(q_deg + 1)
        )
    for _ in range(CASES):
        pick = rng.randrange(3)
        if pick == 0:
            q = random_tensor(rng, MULTIVECTOR, rng.randint(1, 3), max_poly_degree=0)
        elif pick == 1:
            q = psi2_inverse(exterior_derivative(random_tensor(rng, FORM, 1)))
        else:
            q = cayley_3mvf_for(random_polynomial(rng))
        assert is_locally_cayley(q)
        residual += _mass(lie_derivative(q, psi))
    _report(8, "d^2, delta^2, homotopy identity, d-Lie commutation, Cayley Lie annihilation", residual)


def test_criterion_09_derivative_constraint():
    rng = _rng("c9")
    residual = Fraction(0)
    for _ in range(CASES):
        alpha = random_tensor(rng, FORM, 1, max_poly_degree=3)
        q = cayley_2mvf_for(alpha)
        split = project2(flat(q))
        lhs = exterior_derivative(split.components["2_7"]) * 3
        residual += _mass(lhs - exterior_derivative(split.components["2_21"]))
    _report(9, "3 d(Q_7) = d(Q_21) for solved two-multivectors", residual)


def test_criterion_10_function_constant_calibration():
    rng = _rng("c10")
    psi = cayley_form()
    residual = Fraction(0)
    ratios = set()
    for _ in range(CASES):
        f = random_polynomial(rng, max_degree=3)
        df = exterior_derivative(scalar_tensor(f))
        eta = random_tensor(rng, FORM, 3)
        q = cayley_3mvf_for(f) + sharp(project3(eta).components["3_48"])
        image = contract(q, psi)
        lhs = wedge(flat(q), wedge(image, psi))
        eight = wedge(project3(flat(q)).components["3_8"], wedge(image, psi))
        residual += _mass(lhs - eight)
        norm = inner(df, df)
        residual += _mass(lhs - vol() * (norm * CAYLEY_FUNCTION_CONSTANT))
        if not norm.is_zero():
            coeff = lhs.coefficient(tuple(range(DIM)))
            exp = next(iter(norm.terms))
            ratios.add(coeff.coefficient(exp) / norm.terms[exp])
    residual += _mass(0 if ratios == {CAYLEY_FUNCTION_CONSTANT} else 1)
    residual += _mass(0 if CAYLEY_FUNCTION_CONSTANT == 1 else 1)
    _report(
        10,
        "eight-part equality and the function-norm constant",
        residual,
        extra=f"frozen constant {CAYLEY_FUNCTION_CONSTANT}; the quoted 7 fails calibration",
    )


def test_criterion_11_bracket_calibration():
    rng = _rng("c11")
    residual = Fraction(0)
    for _ in range(CASES):
        a = random_vector_field(rng)
        b = random_vector_field(rng)
        xs = {i[0]: p for i, p in a.terms.items()}
        ys = {i[0]: p for i, p in b.terms.items()}
        comps = {}
        for k in range(DIM):
            acc = Polynomial.zero()
            for j in range(DIM):
                if j in xs and k in ys:
                    acc = acc + xs[j] * ys[k].diff(j)
                if j in ys and k in xs:
                    acc = acc - ys[j] * xs[k].diff(j)
            if not acc.is_zero():
                comps[(k,)] = acc
        residual += _mass(schouten(a, b) - GradedTensor(MULTIVECTOR, 1, comps))

    def small(degree, coeff_var):
        bases = {1: [(0,), (3,)], 2: [(0, 1), (2, 4)], 3: [(0, 1, 2), (1, 3, 5)]}[degree]
        out = []
        for idx in bases:
            out.append(GradedTensor(MULTIVECTOR, degree, {idx: Polynomial.one()}))
            out.append(GradedTensor(MULTIVECTOR, degree, {idx: x(coeff_var)}))
        return out

    for q1, q2 in product((1, 2, 3), repeat=2):
        for a in small(q1, 0):
            for b in small(q2, 1):
                residual += _mass(schouten(a, b) - schouten(b, a) * _sign(q1 * q2))
    for q1, q2, q3 in product((1, 2), repeat=3):
        for a in small(q1, 0):
            for b in small(q2, 1):
                for c in small(q3, 2):
                    lhs = schouten(a, wedge(b, c))
                    rhs = wedge(schouten(a, b), c) + wedge(b, schouten(a, c)) * _sign(
                        q1 * q2 + q2
                    )
                    residual += _mass(lhs - rhs)
    for q1, q2, q3 in [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 2, 3)]:
        for a in small(q1, 0)[1:2]:
            for b in small(q2, 1)[1:2]:
                for c in small(q3, 2):
                    total = (
                        schouten(a, schouten(b, c)) * _sign(q1 * (q3 - 1))
                        + schouten(b, schouten(c, a)) * _sign(q2 * (q1 - 1))
                        + schouten(c, schouten(a, b)) * _sign(q3 * (q2 - 1))
                    )
                    residual += _mass(total)
    _report(
        11,
        "bracket reduces to the Lie bracket; frozen exponents hold",
        residual,
        extra="symmetry (-1)^(q1q2); leibniz (-1)^(q1q2+q2); jacobi weights (-1)^(qi(qk-1))",
    )


def test_criterion_12_mutation_sensitivity():
    residual = Fraction(0)
    for degree in range(DIM + 1):
        report = run_checks(scope="core", seed=0, cases=2, star_flip_degree=degree)
        if report["counts"]["fail"] == 0:
            residual += 1
    _report(12, "flipping the star on any degree trips a named check", residual)
