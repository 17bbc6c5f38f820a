"""Named, seeded verification checks for every identity the package exposes.

Each check evaluates one identity exactly (zero tolerance) on deterministic
basis cases plus a configurable number of seeded random instances, and
reports an exact rational residual mass.  Checks are independent - each one
draws from its own RNG keyed by ``(seed, check id)`` - so identical
invocations produce identical reports apart from timing.

A mutation mode (flipping the sign of the Hodge star on one degree) is
wired through the check context; it exists to demonstrate that the suite is
sensitive, i.e. that no identity passes vacuously.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import spin7
from .calculus import (
    exterior_derivative,
    homotopy_primitive,
    lie_derivative,
    schouten,
)
from .linalg import ExactMatrix
from .multiindex import DIM, basis
from .polynomial import Polynomial
from .spin7 import (
    CAYLEY_FUNCTION_CONSTANT,
    cayley_3mvf_for,
    cayley_form,
    eigenspace_dimension,
    map_matrix,
    project2,
    project3,
    project4,
    psi2_inverse,
    psi3_section,
    seven_part_generators,
    three_form_operator_matrix,
    triple_product,
    two_form_operator_matrix,
)
from .tensor import (
    FORM,
    MULTIVECTOR,
    GradedTensor,
    contract,
    dx,
    flat,
    hodge,
    inner,
    mv,
    pullback_linear,
    scalar_tensor,
    sharp,
    unit,
    vol,
    wedge,
)

Star = Callable[[GradedTensor], GradedTensor]


def flipped_hodge(degree: int) -> Star:
    """A Hodge star with the sign flipped on one input degree (mutation mode)."""

    def star(t: GradedTensor) -> GradedTensor:
        out = hodge(t)
        return -out if t.degree == degree else out

    return star


@dataclass(frozen=True)
class CheckContext:
    seed: int = 0
    cases: int = 64
    star: Star = hodge

    def rng(self, check_id: str) -> random.Random:
        return random.Random(f"{self.seed}:{check_id}")


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    anchor: str
    scope: str
    status: str
    residual: str
    elapsed_s: float
    note: str = ""


# -- seeded sparse generators (shared with the test suite) -------------------


def random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([i for i in range(-9, 10) if i]), rng.randint(1, 3))


def random_polynomial(rng: random.Random, max_degree: int = 2, max_terms: int = 3) -> Polynomial:
    terms: dict[tuple[int, ...], Fraction] = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = [0] * DIM
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(DIM)] += 1
        key = tuple(exp)
        terms[key] = terms.get(key, Fraction(0)) + random_fraction(rng)
    return Polynomial(terms)


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


def contraction_oracle(q: GradedTensor, beta: GradedTensor) -> GradedTensor:
    """Literal decomposable expansion: contract one vector at a time.

    Expands the multivector into basis decomposables and applies single
    coordinate-vector contractions first factor innermost, independently of
    the closed-form sign used by :func:`cayley8.tensor.contract`.
    """
    result = GradedTensor.zero(FORM, beta.degree - q.degree)
    for idx, poly in q.terms.items():
        partial = beta
        for j in idx:  # ascending order: first factor contracts first
            partial = contract(mv(j), partial)
        result = result + partial * poly
    return result


# -- residual helpers ---------------------------------------------------------


def _mass(*items: GradedTensor | Polynomial | Fraction | int) -> Fraction:
    total = Fraction(0)
    for item in items:
        if isinstance(item, GradedTensor):
            total += item.coeff_l1()
        elif isinstance(item, Polynomial):
            total += item.abs_coeff_sum()
        else:
            total += abs(Fraction(item))
    return total


def _sign(exponent: int) -> int:
    return 1 if exponent % 2 == 0 else -1


# -- check bodies -------------------------------------------------------------


def _check_wedge_graded_commutativity(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("wedge_graded_commutativity")
    residual = Fraction(0)
    for _ in range(ctx.cases):
        p = rng.randint(0, 4)
        q = rng.randint(0, 4)
        a = random_tensor(rng, FORM, p)
        b = random_tensor(rng, FORM, q)
        residual += _mass(wedge(a, b) - wedge(b, a) * _sign(p * q))
    return residual


def _check_wedge_associativity(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("wedge_associativity")
    residual = Fraction(0)
    for _ in range(ctx.cases):
        degrees = [rng.randint(0, 3) for _ in range(3)]
        a, b, c = (random_tensor(rng, FORM, d) for d in degrees)
        residual += _mass(wedge(wedge(a, b), c) - wedge(a, wedge(b, c)))
    return residual


def _check_contract_oracle(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("contract_matches_decomposable_expansion")
    residual = Fraction(0)
    for _ in range(ctx.cases):
        k = rng.randint(1, DIM)
        l = rng.randint(1, k)
        q = random_tensor(rng, MULTIVECTOR, l, max_terms=4)
        beta = random_tensor(rng, FORM, k, max_terms=4)
        residual += _mass(contract(q, beta) - contraction_oracle(q, beta))
    return residual


def _check_star_involution(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("star_involution")
    residual = Fraction(0)
    for k in range(DIM + 1):
        deterministic = GradedTensor(FORM, k, {tuple(range(k)): 1})
        samples = [deterministic] + [
            random_tensor(rng, FORM, k) for _ in range(max(1, ctx.cases // (DIM + 1)))
        ]
        for beta in samples:
            residual += _mass(ctx.star(ctx.star(beta)) - beta * _sign(k))
    return residual


def _check_star_inner(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("star_inner_consistency")
    residual = Fraction(0)
    volume = vol()
    for k in range(DIM + 1):
        deterministic = GradedTensor(FORM, k, {tuple(range(k)): 1})
        samples = [deterministic] + [
            random_tensor(rng, FORM, k) for _ in range(max(1, ctx.cases // (DIM + 1)))
        ]
        for beta in samples:
            residual += _mass(wedge(beta, ctx.star(beta)) - volume * inner(beta, beta))
    return residual


def _check_musical_inverse(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("musical_inverse")
    residual = Fraction(0)
    for _ in range(ctx.cases):
        k = rng.randint(0, DIM)
        q = random_tensor(rng, MULTIVECTOR, k)
        residual += _mass(sharp(flat(q)) - q)
        residual += _mass(inner(flat(q), flat(q)) - inner(q, q))
    return residual


def _identity_cases(ctx: CheckContext, which: int, max_l: int) -> Fraction:
    """The four contraction/star identities on multivector degrees l <= ``max_l``.

    ``max_l = 1`` gives the vector-field family; its signs are the l = 1
    case of the multivector signs.
    """
    rng = ctx.rng(f"{'vector' if max_l == 1 else 'multivector'}_identity_{which}")
    star = ctx.star
    residual = Fraction(0)
    if which in (1, 3):
        pairs = [(l, k) for k in range(1, DIM + 1) for l in range(1, min(k, max_l) + 1)]
    else:
        pairs = [(l, k) for k in range(0, DIM) for l in range(1, min(DIM - k, max_l) + 1)]
    per_pair = max(1, ctx.cases // len(pairs))
    for l, k in pairs:
        for _ in range(per_pair):
            q = random_tensor(rng, MULTIVECTOR, l)
            beta = random_tensor(rng, FORM, k)
            qf = flat(q)
            if which == 1:
                lhs = contract(q, beta)
                rhs = star(wedge(qf, star(beta))) * _sign((k - l) * (DIM - k))
            elif which == 2:
                lhs = contract(q, star(beta))
                rhs = star(wedge(qf, beta)) * _sign(k * l)
            elif which == 3:
                lhs = star(contract(q, beta))
                rhs = wedge(qf, star(beta)) * _sign(l * (k - l))
            else:
                lhs = star(contract(q, star(beta)))
                rhs = wedge(qf, beta) * _sign(l * (DIM - k - l) + k * (DIM - k))
            residual += _mass(lhs - rhs)
    return residual


def _check_pullback_functorial(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("pullback_functorial")
    residual = Fraction(0)
    for _ in range(max(1, ctx.cases // 8)):
        a = [[random_fraction(rng) if rng.random() < 0.3 else Fraction(int(i == j)) for j in range(DIM)] for i in range(DIM)]
        b = [[random_fraction(rng) if rng.random() < 0.3 else Fraction(int(i == j)) for j in range(DIM)] for i in range(DIM)]
        ab = (ExactMatrix(a) @ ExactMatrix(b)).rows
        k = rng.randint(0, 3)
        beta = random_tensor(rng, FORM, k)
        residual += _mass(
            pullback_linear(ab, beta) - pullback_linear(b, pullback_linear(a, beta))
        )
        gamma = random_tensor(rng, FORM, rng.randint(0, 2))
        residual += _mass(
            pullback_linear(a, wedge(beta, gamma))
            - wedge(pullback_linear(a, beta), pullback_linear(a, gamma))
        )
    return residual


def _rotation_matrix() -> list[list[Fraction]]:
    rows = [[Fraction(int(i == j)) for j in range(DIM)] for i in range(DIM)]
    rows[0][0] = Fraction(3, 5)
    rows[0][1] = Fraction(-4, 5)
    rows[1][0] = Fraction(4, 5)
    rows[1][1] = Fraction(3, 5)
    return rows


def _check_pullback_rotation_star(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("pullback_rotation_star")
    rot = _rotation_matrix()
    residual = Fraction(0)
    for _ in range(max(1, ctx.cases // 4)):
        k = rng.randint(0, DIM)
        beta = random_tensor(rng, FORM, k)
        residual += _mass(
            ctx.star(pullback_linear(rot, beta)) - pullback_linear(rot, ctx.star(beta))
        )
    return residual


def _check_d_squared(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("d_squared_zero")
    residual = Fraction(0)
    for _ in range(ctx.cases):
        k = rng.randint(0, DIM)
        beta = random_tensor(rng, FORM, k, max_poly_degree=3)
        residual += _mass(exterior_derivative(exterior_derivative(beta)))
    return residual


def _check_codifferential_squared(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("codifferential_squared_zero")
    star = ctx.star
    residual = Fraction(0)

    def delta(beta: GradedTensor) -> GradedTensor:
        if beta.degree == 0:
            return GradedTensor.zero(FORM, -1)
        return -star(exterior_derivative(star(beta)))

    for _ in range(ctx.cases):
        k = rng.randint(2, DIM)
        beta = random_tensor(rng, FORM, k, max_poly_degree=3)
        residual += _mass(delta(delta(beta)))
    return residual


def _check_homotopy_identity(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("homotopy_identity")
    residual = Fraction(0)
    per_degree = max(1, ctx.cases // DIM)
    for k in range(1, DIM + 1):
        for _ in range(per_degree):
            beta = random_tensor(rng, FORM, k, max_poly_degree=3)
            lhs = exterior_derivative(homotopy_primitive(beta)) + homotopy_primitive(
                exterior_derivative(beta)
            )
            residual += _mass(lhs - beta)
    return residual


def _check_homotopy_closed(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("homotopy_closed_primitive")
    residual = Fraction(0)
    for _ in range(ctx.cases):
        k = rng.randint(0, DIM - 1)
        closed = exterior_derivative(random_tensor(rng, FORM, k, max_poly_degree=3))
        if closed.is_zero():
            continue
        residual += _mass(exterior_derivative(homotopy_primitive(closed)) - closed)
    return residual


# -- Cayley form checks -------------------------------------------------------


def _check_cayley_term_count(ctx: CheckContext) -> Fraction:
    psi = cayley_form()
    residual = _mass(len(psi.terms) - 14)
    for _, poly in psi.terms.items():
        residual += _mass(abs(poly.constant_value()) - 1)
    residual += _mass(psi.coefficient((0, 1, 2, 3)) - 1)
    # "- dx^{1526}" canonicalizes to +1 on (1,2,5,6)
    residual += _mass(psi.coefficient((1, 2, 5, 6)) - 1)
    return residual


def _check_cayley_self_dual(ctx: CheckContext) -> Fraction:
    psi = cayley_form()
    return _mass(ctx.star(psi) - psi)


def _check_cayley_closed(ctx: CheckContext) -> Fraction:
    return _mass(exterior_derivative(cayley_form()))


def _check_cayley_norm(ctx: CheckContext) -> Fraction:
    psi = cayley_form()
    return _mass(inner(psi, psi) - 14)


def _check_cayley_wedge_self(ctx: CheckContext) -> Fraction:
    psi = cayley_form()
    return _mass(wedge(psi, psi) - vol() * inner(psi, psi))


def _split_residual(report) -> Fraction:
    residual = _mass(report.residual())
    for value in report.defining_residuals().values():
        residual += _mass(value)
    for value in report.orthogonality_residuals().values():
        residual += _mass(value)
    return residual


def _check_two_form_split(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("two_form_split")
    residual = Fraction(0)
    for _ in range(ctx.cases):
        residual += _split_residual(project2(random_tensor(rng, FORM, 2)))
    return residual


def _check_two_form_spectrum(ctx: CheckContext) -> Fraction:
    t_matrix = two_form_operator_matrix()
    identity = ExactMatrix.identity(28)
    residual = _mass(eigenspace_dimension(t_matrix, -3) - 7)
    residual += _mass(eigenspace_dimension(t_matrix, 1) - 21)
    residual += _mass(t_matrix.trace())
    square = t_matrix @ t_matrix
    combo = square + t_matrix * 2 - identity * 3
    residual += sum((abs(v) for row in combo.rows for v in row), Fraction(0))
    return residual


def _check_three_form_split(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("three_form_split")
    residual = Fraction(0)
    for _ in range(ctx.cases):
        residual += _split_residual(project3(random_tensor(rng, FORM, 3)))
    # the image of any vector contraction sits entirely in the 8-part
    for i in range(DIM):
        report = project3(contract(mv(i), cayley_form()))
        residual += _mass(report.components["3_48"])
    return residual


def _check_three_form_spectrum(ctx: CheckContext) -> Fraction:
    s_matrix = three_form_operator_matrix()
    residual = _mass(eigenspace_dimension(s_matrix, -7) - 8)
    residual += _mass(eigenspace_dimension(s_matrix, 0) - 48)
    residual += _mass(s_matrix.trace() + 56)
    square = s_matrix @ s_matrix
    combo = square + s_matrix * 7
    residual += sum((abs(v) for row in combo.rows for v in row), Fraction(0))
    return residual


def _check_four_form_split(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("four_form_split")
    report = project4(cayley_form())
    residual = _split_residual(report)
    residual += _mass(report.components["4_1"] - cayley_form())
    for _ in range(ctx.cases):
        residual += _split_residual(project4(random_tensor(rng, FORM, 4)))
    return residual


def _check_four_form_seven_rank(ctx: CheckContext) -> Fraction:
    columns = [spin7._form_vector(g, 4) for g in seven_part_generators()]
    return _mass(ExactMatrix.from_columns(columns).rank() - 7)


def _check_lemma2_minus7(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("lemma2_minus7")
    psi = cayley_form()
    star = ctx.star
    residual = Fraction(0)
    samples = [dx(i) for i in range(DIM)]
    samples += [random_tensor(rng, FORM, 1) for _ in range(ctx.cases)]
    for alpha in samples:
        lhs = star(wedge(psi, star(wedge(psi, alpha))))
        residual += _mass(lhs + alpha * 7)
    return residual


def _check_map_rank_vectors(ctx: CheckContext) -> Fraction:
    matrix = map_matrix(1)
    residual = _mass(matrix.nrows - 56, matrix.ncols - 8)
    residual += _mass(matrix.rank() - 8)
    return residual


def _check_map_rank_two(ctx: CheckContext) -> Fraction:
    matrix = map_matrix(2)
    residual = _mass(matrix.nrows - 28, matrix.ncols - 28)
    residual += _mass(matrix.rank() - 28)
    residual += _mass(0 if matrix == two_form_operator_matrix() else 1)
    return residual


def _check_map_rank_three(ctx: CheckContext) -> Fraction:
    matrix = map_matrix(3)
    residual = _mass(matrix.nrows - 8, matrix.ncols - 56)
    residual += _mass(matrix.rank() - 8, matrix.nullity() - 48)
    kernel = ExactMatrix.from_columns(matrix.nullspace())
    psi = cayley_form()
    columns = []
    for idx in basis(3):
        image = wedge(GradedTensor(FORM, 3, {idx: 1}), psi)
        columns.append(spin7._form_vector(image, 7))
    wedge_map = ExactMatrix.from_columns(columns)
    annihilator = ExactMatrix.from_columns(wedge_map.nullspace())
    residual += _mass(0 if kernel.column_span_equals(annihilator) else 1)
    return residual


def _check_psi2_roundtrip(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("psi2_inverse_roundtrip")
    psi = cayley_form()
    residual = Fraction(0)
    for _ in range(ctx.cases):
        beta = random_tensor(rng, FORM, 2)
        residual += _mass(contract(psi2_inverse(beta), psi) - beta)
        q = random_tensor(rng, MULTIVECTOR, 2)
        residual += _mass(psi2_inverse(contract(q, psi)) - q)
    return residual


def _check_psi3_section(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("psi3_section_surjective")
    psi = cayley_form()
    residual = Fraction(0)
    for i in range(DIM):
        residual += _mass(contract(psi3_section(dx(i)), psi) - dx(i))
    for _ in range(ctx.cases):
        alpha = random_tensor(rng, FORM, 1)
        residual += _mass(contract(psi3_section(alpha), psi) - alpha)
    return residual


def _check_triple_product_example(ctx: CheckContext) -> Fraction:
    psi = cayley_form()
    residual = _mass(contract(mv(0, 1, 2), psi) - dx(3))
    residual += _mass(triple_product(mv(0, 1, 2)) - mv(3))
    residual += _mass(ctx.star(dx(0, 1, 2, 4, 5, 6, 7)) - dx(3))
    return residual


def _check_triple_product_norm(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("triple_product_norm")
    residual = Fraction(0)
    for _ in range(ctx.cases):
        q = random_decomposable(rng, 3)
        image = triple_product(q)
        residual += _mass(inner(image, image) - inner(flat(q), flat(q)))
    return residual


def _check_seven_star(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("seven_star_identity")
    psi = cayley_form()
    residual = Fraction(0)
    samples = [mv(i) for i in range(DIM)]
    samples += [random_vector_field(rng) for _ in range(ctx.cases)]
    for x_field in samples:
        lhs = wedge(contract(x_field, psi), psi)
        residual += _mass(lhs - ctx.star(flat(x_field)) * 7)
    return residual


def _check_seven_norm(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("seven_norm_identity")
    residual = Fraction(0)
    samples = [mv(i) for i in range(DIM)]
    samples += [random_vector_field(rng) for _ in range(ctx.cases)]
    for x_field in samples:
        report = spin7.identity_report("seven_norm", x_field)
        residual += _mass(report["residual"])
    return residual


def _check_decomposable_minus6(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("decomposable_minus6")
    residual = _mass(spin7.identity_report("decomposable_minus6", mv(0), mv(1))["residual"])
    for _ in range(ctx.cases):
        u = random_vector_field(rng)
        v = random_vector_field(rng)
        residual += _mass(spin7.identity_report("decomposable_minus6", u, v)["residual"])
    return residual


def _check_norm_split_minus27(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("norm_split_minus27")
    residual = Fraction(0)
    for _ in range(ctx.cases):
        q = random_tensor(rng, MULTIVECTOR, 2)
        residual += _mass(spin7.identity_report("norm_split_minus27", q)["residual"])
    return residual


def _check_norm_split_three(ctx: CheckContext) -> Fraction:
    report = spin7.identity_report("norm_split_three", mv(0, 1, 2))
    residual = _mass(report["eight_part"], report["large_part"])
    rep3 = project3(flat(mv(0, 1, 2)))
    residual += _mass(inner(rep3.components["3_8"], rep3.components["3_8"]) - Fraction(1, 7))
    residual += _mass(inner(rep3.components["3_48"], rep3.components["3_48"]) - Fraction(6, 7))
    rng = ctx.rng("norm_split_three")
    for _ in range(ctx.cases):
        q = random_decomposable(rng, 3)
        report = spin7.identity_report("norm_split_three", q)
        residual += _mass(report["eight_part"], report["large_part"])
    return residual


def _check_coexact_seven(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("coexact_seven")
    star = ctx.star
    psi = cayley_form()
    residual = Fraction(0)
    for _ in range(ctx.cases):
        f = random_polynomial(rng, max_degree=3)
        q = cayley_3mvf_for(f)
        df = exterior_derivative(scalar_tensor(f))
        report = project3(flat(q))
        residual += _mass(report.components["3_48"])
        codiff = -star(exterior_derivative(star(wedge(scalar_tensor(f), psi))))
        residual += _mass(codiff - report.components["3_8"] * 7)
        residual += _mass(inner(df, df) - inner(flat(q), flat(q)) * 7)
    return residual


def _check_cayley_fn_constant(ctx: CheckContext) -> tuple[Fraction, str]:
    rng = ctx.rng("cayley_fn_constant")
    residual = Fraction(0)
    for _ in range(ctx.cases):
        f = random_polynomial(rng, max_degree=3)
        df = exterior_derivative(scalar_tensor(f))
        eta = random_tensor(rng, FORM, 3)
        kernel_part = sharp(project3(eta).components["3_48"])
        q = cayley_3mvf_for(f, kernel_part=kernel_part)
        report = spin7.identity_report("cayley_fn", q, df)
        residual += _mass(report["eight_part_eq"], report["scalar"], report["image"])
    note = f"calibrated constant {CAYLEY_FUNCTION_CONSTANT}; the quoted 7 fails calibration"
    return residual, note


def _check_cayley2_constraint(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("cayley2_constraint")
    residual = Fraction(0)
    for _ in range(ctx.cases):
        alpha = random_tensor(rng, FORM, 1, max_poly_degree=3)
        q = spin7.cayley_2mvf_for(alpha)
        report = project2(flat(q))
        lhs = exterior_derivative(report.components["2_7"]) * 3
        rhs = exterior_derivative(report.components["2_21"])
        residual += _mass(lhs - rhs)
        residual += _mass(contract(q, cayley_form()) - exterior_derivative(alpha))
    return residual


def _check_cayley_potential(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("cayley_potential_roundtrip")
    psi = cayley_form()
    residual = Fraction(0)
    residual += _mass(
        exterior_derivative(spin7.cayley_potential(mv(0, 1, 2))) - dx(3)
    )
    for _ in range(max(1, ctx.cases // 2)):
        gamma = random_tensor(rng, FORM, 1)
        q2 = psi2_inverse(exterior_derivative(gamma))
        residual += _mass(
            exterior_derivative(spin7.cayley_potential(q2)) - exterior_derivative(gamma)
        )
        f = random_polynomial(rng)
        q3 = cayley_3mvf_for(f)
        alpha = spin7.cayley_potential(q3)
        residual += _mass(exterior_derivative(alpha) - contract(q3, psi))
    return residual


def _check_locally_cayley_lie(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("locally_cayley_lie")
    psi = cayley_form()
    residual = Fraction(0)
    for _ in range(ctx.cases):
        pick = rng.randrange(3)
        if pick == 0:
            q = GradedTensor(
                MULTIVECTOR, 2, {(rng.randrange(4), 4 + rng.randrange(4)): random_fraction(rng)}
            )
        elif pick == 1:
            q = psi2_inverse(exterior_derivative(random_tensor(rng, FORM, 1)))
        else:
            q = cayley_3mvf_for(random_polynomial(rng))
        if not spin7.is_locally_cayley(q):
            residual += Fraction(1)
            continue
        residual += _mass(lie_derivative(q, psi))
    return residual


# -- bracket checks -----------------------------------------------------------


def _lie_bracket_oracle(x_field: GradedTensor, y_field: GradedTensor) -> GradedTensor:
    """Classical component formula [X,Y]^k = X^j d_j Y^k - Y^j d_j X^k."""
    xs = {idx[0]: p for idx, p in x_field.terms.items()}
    ys = {idx[0]: p for idx, p in y_field.terms.items()}
    comps: dict[tuple[int, ...], Polynomial] = {}
    for k in range(DIM):
        acc = Polynomial.zero()
        for j in range(DIM):
            if j in xs and k in ys:
                acc = acc + xs[j] * ys[k].diff(j)
            if j in ys and k in xs:
                acc = acc - ys[j] * xs[k].diff(j)
        if not acc.is_zero():
            comps[(k,)] = acc
    return GradedTensor(MULTIVECTOR, 1, comps)


def _check_schouten_vector_lie(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("schouten_vector_lie")
    residual = Fraction(0)
    for _ in range(ctx.cases):
        x_field = random_vector_field(rng)
        y_field = random_vector_field(rng)
        residual += _mass(schouten(x_field, y_field) - _lie_bracket_oracle(x_field, y_field))
    return residual


def _check_schouten_jacobi_vectors(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("schouten_jacobi_vectors")
    residual = Fraction(0)
    for _ in range(max(1, ctx.cases // 2)):
        a, b, c = (random_vector_field(rng) for _ in range(3))
        total = (
            schouten(a, schouten(b, c))
            + schouten(b, schouten(c, a))
            + schouten(c, schouten(a, b))
        )
        residual += _mass(total)
        residual += _mass(schouten(a, b) + schouten(b, a))
    return residual


#: Frozen by exhaustive small-case calibration: [Q1,Q2] = (-1)^(q1*q2) [Q2,Q1].
SCHOUTEN_SYMMETRY_EXPONENT = "q1*q2"

#: Frozen: [Q1, Q2^Q3] = [Q1,Q2]^Q3 + (-1)^(q1*q2+q2) Q2^[Q1,Q3].
SCHOUTEN_LEIBNIZ_EXPONENT = "q1*q2+q2"

#: Frozen: sum over cyclic (1,2,3) of (-1)^(q1*(q3-1)) [Q1,[Q2,Q3]] = 0.
SCHOUTEN_JACOBI_EXPONENT = "q1*(q3-1)"

#: Frozen: L_{Q1^Q2} b = Q2 _| L_{Q1} b + (-1)^q1 L_{Q2}(Q1 _| b).
LIE_WEDGE_EXPONENT = "q1"

#: Frozen: [Q1,Q2] _| b = (-1)^(q1*q2+q2) L_{Q1}(Q2 _| b) - Q2 _| L_{Q1} b.
BRACKET_CONTRACTION_EXPONENT = "q1*q2+q2"


def _check_schouten_symmetry(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("schouten_graded_symmetry")
    residual = Fraction(0)
    combos = [(q1, q2) for q1 in (1, 2, 3) for q2 in (1, 2, 3)]
    per = max(1, ctx.cases // len(combos))
    for q1, q2 in combos:
        for _ in range(per):
            a = random_tensor(rng, MULTIVECTOR, q1, max_terms=3)
            b = random_tensor(rng, MULTIVECTOR, q2, max_terms=3)
            residual += _mass(schouten(a, b) - schouten(b, a) * _sign(q1 * q2))
    return residual


def _check_schouten_leibniz(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("schouten_leibniz")
    residual = Fraction(0)
    combos = [(q1, q2, q3) for q1 in (1, 2) for q2 in (1, 2) for q3 in (1, 2)]
    per = max(1, ctx.cases // len(combos))
    for q1, q2, q3 in combos:
        for _ in range(per):
            a = random_tensor(rng, MULTIVECTOR, q1, max_terms=2)
            b = random_tensor(rng, MULTIVECTOR, q2, max_terms=2)
            c = random_tensor(rng, MULTIVECTOR, q3, max_terms=2)
            lhs = schouten(a, wedge(b, c))
            rhs = wedge(schouten(a, b), c) + wedge(b, schouten(a, c)) * _sign(q1 * q2 + q2)
            residual += _mass(lhs - rhs)
    return residual


def _check_schouten_graded_jacobi(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("schouten_graded_jacobi")
    residual = Fraction(0)
    combos = [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 2, 3)]
    per = max(1, ctx.cases // (4 * len(combos)))
    for q1, q2, q3 in combos:
        for _ in range(per):
            a = random_tensor(rng, MULTIVECTOR, q1, max_terms=2)
            b = random_tensor(rng, MULTIVECTOR, q2, max_terms=2)
            c = random_tensor(rng, MULTIVECTOR, q3, max_terms=2)
            total = (
                schouten(a, schouten(b, c)) * _sign(q1 * (q3 - 1))
                + schouten(b, schouten(c, a)) * _sign(q2 * (q1 - 1))
                + schouten(c, schouten(a, b)) * _sign(q3 * (q2 - 1))
            )
            residual += _mass(total)
    return residual


def _check_lie_d_commutation(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("lie_d_commutation")
    residual = Fraction(0)
    for _ in range(ctx.cases):
        q_deg = rng.randint(1, 3)
        k = rng.randint(q_deg - 1, DIM)
        q = random_tensor(rng, MULTIVECTOR, q_deg, max_terms=3)
        beta = random_tensor(rng, FORM, k)
        lhs = exterior_derivative(lie_derivative(q, beta))
        rhs = lie_derivative(q, exterior_derivative(beta)) * _sign(q_deg + 1)
        residual += _mass(lhs - rhs)
    return residual


def _check_lie_wedge_split(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("lie_wedge_split")
    residual = Fraction(0)
    tried = 0
    while tried < ctx.cases:
        q1_deg = rng.randint(1, 2)
        q2_deg = rng.randint(1, 2)
        k = rng.randint(q1_deg + q2_deg, DIM)
        q1 = random_tensor(rng, MULTIVECTOR, q1_deg, max_terms=3)
        q2 = random_tensor(rng, MULTIVECTOR, q2_deg, max_terms=3)
        beta = random_tensor(rng, FORM, k)
        tried += 1
        lhs = lie_derivative(wedge(q1, q2), beta)
        rhs = contract(q2, lie_derivative(q1, beta)) + lie_derivative(
            q2, contract(q1, beta)
        ) * _sign(q1_deg)
        residual += _mass(lhs - rhs)
    return residual


def _check_bracket_contraction(ctx: CheckContext) -> Fraction:
    rng = ctx.rng("bracket_contraction")
    residual = Fraction(0)
    tried = 0
    while tried < ctx.cases:
        q1_deg = rng.randint(1, 2)
        q2_deg = rng.randint(1, 2)
        k = rng.randint(q1_deg + q2_deg, DIM)
        q1 = random_tensor(rng, MULTIVECTOR, q1_deg, max_terms=3)
        q2 = random_tensor(rng, MULTIVECTOR, q2_deg, max_terms=3)
        beta = random_tensor(rng, FORM, k)
        tried += 1
        lhs = contract(schouten(q1, q2), beta)
        rhs = lie_derivative(q1, contract(q2, beta)) * _sign(
            q1_deg * q2_deg + q2_deg
        ) - contract(q2, lie_derivative(q1, beta))
        residual += _mass(lhs - rhs)
    return residual


# -- the registry -------------------------------------------------------------

Runner = Callable[[CheckContext], "Fraction | tuple[Fraction, str]"]

CHECKS: list[tuple[str, str, str, Runner]] = [
    ("wedge_graded_commutativity", "a ^ b = (-1)^(pq) b ^ a", "core", _check_wedge_graded_commutativity),
    ("wedge_associativity", "(a ^ b) ^ c = a ^ (b ^ c)", "core", _check_wedge_associativity),
    ("contract_matches_decomposable_expansion", "Q _| beta = u_l _| ... u_1 _| beta, extended bilinearly", "core", _check_contract_oracle),
    ("star_involution", "star(star(b)) = (-1)^k b on degree k", "core", _check_star_involution),
    ("star_inner_consistency", "b ^ star(b) = <b,b> vol", "core", _check_star_inner),
    ("musical_inverse", "sharp(flat(Q)) = Q and norms agree", "core", _check_musical_inverse),
    ("vector_identity_1", "X _| b = (-1)^((n-k)(k-1)) star(flat(X) ^ star(b))", "core", lambda ctx: _identity_cases(ctx, 1, 1)),
    ("vector_identity_2", "X _| star(b) = (-1)^k star(flat(X) ^ b)", "core", lambda ctx: _identity_cases(ctx, 2, 1)),
    ("vector_identity_3", "star(X _| b) = (-1)^(k+1) flat(X) ^ star(b)", "core", lambda ctx: _identity_cases(ctx, 3, 1)),
    ("vector_identity_4", "star(X _| star(b)) = (-1)^(n-k-1+k(n-k)) flat(X) ^ b", "core", lambda ctx: _identity_cases(ctx, 4, 1)),
    ("multivector_identity_1", "Q _| b = (-1)^((k-l)(n-k)) star(flat(Q) ^ star(b))", "core", lambda ctx: _identity_cases(ctx, 1, DIM)),
    ("multivector_identity_2", "Q _| star(b) = (-1)^(kl) star(flat(Q) ^ b)", "core", lambda ctx: _identity_cases(ctx, 2, DIM)),
    ("multivector_identity_3", "star(Q _| b) = (-1)^(l(k-l)) flat(Q) ^ star(b)", "core", lambda ctx: _identity_cases(ctx, 3, DIM)),
    ("multivector_identity_4", "star(Q _| star(b)) = (-1)^(l(n-k-l)+k(n-k)) flat(Q) ^ b", "core", lambda ctx: _identity_cases(ctx, 4, DIM)),
    ("pullback_functorial", "pullback(AB) = pullback(B) o pullback(A); commutes with wedge", "core", _check_pullback_functorial),
    ("pullback_rotation_star", "star commutes with special-orthogonal pullback", "core", _check_pullback_rotation_star),
    ("d_squared_zero", "d(d(b)) = 0", "core", _check_d_squared),
    ("codifferential_squared_zero", "delta(delta(b)) = 0 with delta = -star d star", "core", _check_codifferential_squared),
    ("homotopy_identity", "d(H b) + H(d b) = b on degrees 1..8", "core", _check_homotopy_identity),
    ("homotopy_closed_primitive", "d(H b) = b for closed b", "core", _check_homotopy_closed),
    ("cayley_term_count", "the Cayley form has 14 unit terms with the canonical signs", "spin7", _check_cayley_term_count),
    ("cayley_self_dual", "star(Psi) = Psi", "spin7", _check_cayley_self_dual),
    ("cayley_closed", "d Psi = 0", "spin7", _check_cayley_closed),
    ("cayley_norm_14", "<Psi, Psi> = 14", "spin7", _check_cayley_norm),
    ("cayley_wedge_self", "Psi ^ Psi = 14 vol", "spin7", _check_cayley_wedge_self),
    ("two_form_split", "beta = beta_7 + beta_21 with star(Psi^beta_7) = -3 beta_7, star(Psi^beta_21) = beta_21", "spin7", _check_two_form_split),
    ("two_form_spectrum", "star(Psi ^ .) on two-forms: eigenvalue -3 (x7), +1 (x21)", "spin7", _check_two_form_spectrum),
    ("three_form_split", "eta = eta_8 + eta_48 with eta_8 = w _| Psi and eta_48 ^ Psi = 0", "spin7", _check_three_form_split),
    ("three_form_spectrum", "star(Psi ^ star(Psi ^ .)) on three-forms: spectrum -7 (x8), 0 (x48)", "spin7", _check_three_form_spectrum),
    ("four_form_split", "sigma = sigma_1 + sigma_7 + sigma_27 + sigma_35, orthogonal, defining equations hold", "spin7", _check_four_form_split),
    ("four_form_seven_rank", "span{flat(v)^(w _| Psi) - flat(w)^(v _| Psi)} has dimension 7", "spin7", _check_four_form_seven_rank),
    ("lemma2_minus7", "star(Psi ^ star(Psi ^ alpha)) = -7 alpha", "spin7", _check_lemma2_minus7),
    ("map_rank_vectors", "contraction of vector fields into Psi is injective (rank 8)", "spin7", _check_map_rank_vectors),
    ("map_rank_two", "contraction of two-multivectors into Psi is invertible (rank 28)", "spin7", _check_map_rank_two),
    ("map_rank_three", "contraction of three-multivectors: rank 8, kernel = sharp{eta : eta ^ Psi = 0}", "spin7", _check_map_rank_three),
    ("psi2_inverse_roundtrip", "beta = (-1/3 sharp(beta_7) + sharp(beta_21)) _| Psi, two-sided", "spin7", _check_psi2_roundtrip),
    ("psi3_section_surjective", "(-1/7 sharp(sharp(alpha) _| Psi)) _| Psi = alpha", "spin7", _check_psi3_section),
    ("triple_product_coordinate_example", "(e0^e1^e2) _| Psi = dx3 and star(dx0124567) = dx3", "spin7", _check_triple_product_example),
    ("triple_product_norm", "<X(Q), X(Q)> = <flat(Q), flat(Q)> on decomposables", "spin7", _check_triple_product_norm),
    ("seven_star_identity", "(X _| Psi) ^ Psi = 7 star(flat(X))", "spin7", _check_seven_star),
    ("seven_norm_identity", "flat(X) ^ (X _| Psi) ^ Psi = 7 |X|^2 vol", "spin7", _check_seven_norm),
    ("decomposable_minus6", "((u^v) _| Psi)^2 ^ Psi = -6 |flat(u)^flat(v)|^2 vol", "spin7", _check_decomposable_minus6),
    ("norm_split_minus27", "(Q _| Psi)^2 ^ Psi = (-27 |Q_7|^2 + |Q_21|^2) vol", "spin7", _check_norm_split_minus27),
    ("norm_split_three", "|Q_8|^2 = 1/7 |Q|^2 and |Q_48|^2 = 6/7 |Q|^2 on decomposables", "spin7", _check_norm_split_three),
    ("coexact_seven", "delta(f Psi) = 7 (flat Q)_8 and |df|^2 = 7 |(flat Q)_8|^2", "spin7", _check_coexact_seven),
    ("cayley_fn_constant", "flat(Q) ^ (Q _| Psi) ^ Psi = (flat Q)_8 ^ (Q _| Psi) ^ Psi = c |df|^2 vol", "spin7", _check_cayley_fn_constant),
    ("cayley2_constraint", "3 d(Q_7) = d(Q_21) for Q solving Q _| Psi = d alpha", "spin7", _check_cayley2_constraint),
    ("cayley_potential_roundtrip", "d(potential(Q)) = Q _| Psi for locally Cayley Q", "spin7", _check_cayley_potential),
    ("locally_cayley_lie", "L_Q Psi = 0 whenever d(Q _| Psi) = 0", "spin7", _check_locally_cayley_lie),
    ("schouten_vector_lie", "[X, Y] equals the classical Lie bracket on vector fields", "brackets", _check_schouten_vector_lie),
    ("schouten_jacobi_vectors", "unsigned Jacobi identity and antisymmetry on vector fields", "brackets", _check_schouten_jacobi_vectors),
    ("schouten_graded_symmetry", "[Q1,Q2] = (-1)^(q1 q2) [Q2,Q1] (calibrated)", "brackets", _check_schouten_symmetry),
    ("schouten_leibniz", "[Q1,Q2^Q3] = [Q1,Q2]^Q3 + (-1)^(q1 q2 + q2) Q2^[Q1,Q3] (calibrated)", "brackets", _check_schouten_leibniz),
    ("schouten_graded_jacobi", "cyclic sum of (-1)^(q1(q3-1)) [Q1,[Q2,Q3]] = 0 (calibrated)", "brackets", _check_schouten_graded_jacobi),
    ("lie_d_commutation", "d(L_Q b) = (-1)^(q+1) L_Q d(b)", "brackets", _check_lie_d_commutation),
    ("lie_wedge_split", "L_{Q1^Q2} b = Q2 _| L_{Q1} b + (-1)^q1 L_{Q2}(Q1 _| b) (calibrated)", "brackets", _check_lie_wedge_split),
    ("bracket_contraction", "[Q1,Q2] _| b = (-1)^(q1 q2 + q2) L_{Q1}(Q2 _| b) - Q2 _| L_{Q1} b (calibrated)", "brackets", _check_bracket_contraction),
]

SCOPES = ("all", "core", "spin7", "brackets")


def run_checks(
    scope: str = "all",
    seed: int = 0,
    cases: int = 64,
    star_flip_degree: int | None = None,
) -> dict:
    """Run the registry and assemble a deterministic report."""
    if scope not in SCOPES:
        raise ValueError(f"scope must be one of {SCOPES}")
    if cases < 0:
        raise ValueError(f"cases must be non-negative, got {cases}")
    if star_flip_degree is not None and not 0 <= star_flip_degree <= DIM:
        raise ValueError(f"mutation degree must be in 0..{DIM}, got {star_flip_degree}")
    star = hodge if star_flip_degree is None else flipped_hodge(star_flip_degree)
    ctx = CheckContext(seed=seed, cases=cases, star=star)
    results: list[CheckResult] = []
    for check_id, anchor, check_scope, runner in CHECKS:
        if scope != "all" and check_scope != scope:
            continue
        start = time.perf_counter()
        outcome = runner(ctx)
        elapsed = time.perf_counter() - start
        note = ""
        if isinstance(outcome, tuple):
            residual, note = outcome
        else:
            residual = outcome
        results.append(
            CheckResult(
                check_id=check_id,
                anchor=anchor,
                scope=check_scope,
                status="pass" if residual == 0 else "fail",
                residual=str(residual),
                elapsed_s=round(elapsed, 6),
                note=note,
            )
        )
    failed = [r for r in results if r.status == "fail"]
    report = {
        "scope": scope,
        "seed": seed,
        "cases": cases,
        "mutation": None
        if star_flip_degree is None
        else {"op": "hodge", "degree": star_flip_degree},
        "checks": [r.__dict__ for r in results],
        "counts": {"pass": len(results) - len(failed), "fail": len(failed)},
        "overall_status": "fail" if failed else "pass",
    }
    return report


def registry_ids() -> list[str]:
    return [check_id for check_id, _, _, _ in CHECKS]


def registry_anchors() -> dict[str, str]:
    return {check_id: anchor for check_id, anchor, _, _ in CHECKS}
