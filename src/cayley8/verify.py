"""Named, seeded verification checks for every identity the package exposes.

Each check evaluates one identity exactly (zero tolerance) on deterministic
basis cases plus a configurable number of seeded random instances, and
reports an exact rational residual mass.

The check contract: a check body is a generator.  It draws its random inputs
from ``ctx.rng`` and yields each residual piece - a tensor, polynomial,
matrix, rational or int that is zero exactly when the identity holds on
that instance.  The registry (:func:`run_checks`) does the rest: it seeds one
RNG per check from ``(seed, check id)``, so checks are independent of each
other and of the scope they run in; it sums the mass of every yielded piece;
it fails a check whose body raises a ``ValueError``, keeping the rest of the
report; and it times the whole check.  Identical invocations therefore
produce identical reports apart from timing.

The seeded generators draw through one loop, :func:`_below`, that consumes
exactly what ``randrange``, ``randint`` and ``choice`` would, and build
packed polynomial fields and tensors directly, so the reports match those
of generators calling ``random`` and the constructors.

A mutation mode (flipping the sign of the Hodge star on one degree) is
wired through the check context.  It shows that the checks reading
``ctx.star`` fail under it; it does not show that no identity passes
vacuously (the ``sum`` residual of each split check, for one, is zero by
construction, see ``DecompositionReport.residual``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from . import spin7
from .calculus import (
    codifferential,
    exterior_derivative,
    homotopy_pair,
    lie_derivative,
    schouten,
)
from .linalg import ExactMatrix
from .multiindex import DIM, basis
from .polynomial import MAX_EXPONENT, ExponentOverflow, Polynomial, _SHIFTS, _summed
from .spin7 import (
    CAYLEY_FUNCTION_CONSTANT,
    cayley2_constraint,
    cayley_3mvf_for,
    cayley_form,
    eigenspace_dimension,
    map_matrix,
    project2,
    project3,
    project4,
    psi2_inverse,
    psi3_section,
    structure_matrix,
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
    """What a check body may use: its own RNG, the case count, the Hodge star."""

    rng: random.Random
    cases: int
    star: Star


# -- seeded sparse generators (shared with the test suite) -------------------


_NONZERO_NUMERATORS = tuple(i for i in range(-9, 10) if i)
#: ``_STEPS[i]`` added to a packed monomial key raises the exponent of ``x_i`` by one.
_STEPS = tuple(1 << shift for shift in _SHIFTS)


def _below(rng: random.Random, n: int) -> int:
    """A uniform draw from ``range(n)`` that consumes what ``rng.randrange(n)`` does.

    ``randrange``, ``randint`` and ``choice`` of a ``random.Random`` all
    draw through ``getrandbits(n.bit_length())``, repeated until the draw
    is below ``n``; this is that loop without their argument handling.
    An empty range raises, as theirs do: ``getrandbits(0)`` is always 0,
    so the loop would never end.
    """
    if n <= 0:
        raise ValueError(f"empty range for a draw below {n}")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def random_fraction(rng: random.Random) -> Fraction:
    return Fraction(_NONZERO_NUMERATORS[_below(rng, len(_NONZERO_NUMERATORS))], 1 + _below(rng, 3))


def random_polynomial(rng: random.Random, max_degree: int = 2) -> Polynomial:
    """One to three random monomials with ``random_fraction`` coefficients.

    Each term draws its number of variable factors, the variable of each
    factor, a numerator and a denominator, exactly as ``randint``,
    ``randrange`` and ``choice`` would.  Its packed key grows by one
    ``_STEPS`` entry per factor, and ``polynomial._summed`` adds the terms
    over the lcm of their denominators.  A ``max_degree`` above
    :data:`MAX_EXPONENT` raises :class:`ExponentOverflow` before any draw,
    since a field could pass the cap.
    """
    if max_degree > MAX_EXPONENT:
        raise ExponentOverflow(f"max_degree {max_degree} above MAX_EXPONENT = {MAX_EXPONENT}")
    drawn = []
    for _ in range(1 + _below(rng, 3)):
        key = 0
        for _ in range(_below(rng, max_degree + 1)):
            key += _STEPS[_below(rng, DIM)]
        num = _NONZERO_NUMERATORS[_below(rng, len(_NONZERO_NUMERATORS))]
        drawn.append((key, num, 1 + _below(rng, 3)))
    return _summed(drawn)


def random_tensor(
    rng: random.Random,
    variance: str,
    degree: int,
    max_terms: int = 5,
    max_poly_degree: int = 2,
) -> GradedTensor:
    """Up to ``max_terms`` ``random_polynomial`` coefficients on basis indices of ``degree``.

    Draws exactly as filling a dict ``{rng.choice(basis(degree)): poly}``
    and passing it to the constructor would, and wraps the nonzero
    coefficients as they are.  A degree that is not an int raises before any
    draw, where ``basis`` refuses it; any other bad shape raises after the
    draws, as the constructor would.
    """
    if type(degree) is not int:
        GradedTensor._check_shape(variance, degree)
    keys = basis(degree)
    terms: dict[tuple[int, ...], Polynomial] = {}
    for _ in range(1 + _below(rng, min(max_terms, len(keys)))):
        terms[keys[_below(rng, len(keys))]] = random_polynomial(rng, max_poly_degree)
    GradedTensor._check_shape(variance, degree)
    return GradedTensor._raw(variance, degree, {idx: poly for idx, poly in terms.items() if poly})


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

#: One residual piece yielded by a check body; zero when the identity holds.
Piece = GradedTensor | Polynomial | ExactMatrix | Fraction | int
Check = Callable[[CheckContext], Iterator[Piece]]


def _mass(piece: Piece) -> Fraction:
    """Exact l1 mass of one residual piece."""
    if isinstance(piece, GradedTensor):
        return piece.coeff_l1()
    if isinstance(piece, Polynomial):
        return piece.abs_coeff_sum()
    if isinstance(piece, ExactMatrix):
        return piece.abs_entry_sum()
    return abs(Fraction(piece))


def _sign(exponent: int) -> int:
    return 1 if exponent % 2 == 0 else -1


def _spread(combos: Sequence, cases: int) -> Iterator:
    """Each of ``combos`` in order, ``max(1, cases // len(combos))`` times: the one sweep schedule."""
    per = max(1, cases // len(combos))
    for combo in combos:
        for _ in range(per):
            yield combo


def _coordinate_samples(ctx: CheckContext, variance: str, max_terms: int) -> list[GradedTensor]:
    """The eight coordinate one-tensors of ``variance``, then ``ctx.cases`` seeded ones of up to ``max_terms`` terms."""
    coordinates = [GradedTensor(variance, 1, {(i,): 1}) for i in range(DIM)]
    return coordinates + [random_tensor(ctx.rng, variance, 1, max_terms=max_terms) for _ in range(ctx.cases)]


# -- check bodies -------------------------------------------------------------


def _check_wedge_graded_commutativity(ctx: CheckContext) -> Iterator[Piece]:
    rng = ctx.rng
    for _ in range(ctx.cases):
        p = rng.randint(0, 4)
        q = rng.randint(0, 4)
        a = random_tensor(rng, FORM, p)
        b = random_tensor(rng, FORM, q)
        yield wedge(a, b) - wedge(b, a) * _sign(p * q)


def _check_wedge_associativity(ctx: CheckContext) -> Iterator[Piece]:
    rng = ctx.rng
    for _ in range(ctx.cases):
        degrees = [rng.randint(0, 3) for _ in range(3)]
        a, b, c = (random_tensor(rng, FORM, d) for d in degrees)
        yield wedge(wedge(a, b), c) - wedge(a, wedge(b, c))


def _check_contract_oracle(ctx: CheckContext) -> Iterator[Piece]:
    rng = ctx.rng
    for _ in range(ctx.cases):
        k = rng.randint(1, DIM)
        l = rng.randint(1, k)
        q = random_tensor(rng, MULTIVECTOR, l, max_terms=4)
        beta = random_tensor(rng, FORM, k, max_terms=4)
        yield contract(q, beta) - contraction_oracle(q, beta)


def _forms_by_degree(ctx: CheckContext) -> Iterator[tuple[int, GradedTensor]]:
    """The basis form dx^{0..k-1} on each degree k, then seeded random forms spread over the degrees."""
    for k in range(DIM + 1):
        yield k, GradedTensor(FORM, k, {tuple(range(k)): 1})
    for k in _spread(range(DIM + 1), ctx.cases):
        yield k, random_tensor(ctx.rng, FORM, k)


def _check_star_involution(ctx: CheckContext) -> Iterator[Piece]:
    for k, beta in _forms_by_degree(ctx):
        yield ctx.star(ctx.star(beta)) - beta * _sign(k)


def _check_star_inner(ctx: CheckContext) -> Iterator[Piece]:
    volume = vol()
    for _, beta in _forms_by_degree(ctx):
        yield wedge(beta, ctx.star(beta)) - volume * inner(beta, beta)


def _check_musical_inverse(ctx: CheckContext) -> Iterator[Piece]:
    rng = ctx.rng
    for _ in range(ctx.cases):
        k = rng.randint(0, DIM)
        q = random_tensor(rng, MULTIVECTOR, k)
        yield sharp(flat(q)) - q
        yield inner(flat(q), flat(q)) - inner(q, q)


def _identity_cases(ctx: CheckContext, which: int, max_l: int) -> Iterator[Piece]:
    """The four contraction/star identities on multivector degrees l <= ``max_l``.

    ``max_l = 1`` gives the vector-field family; its signs are the l = 1
    case of the multivector signs.
    """
    rng = ctx.rng
    star = ctx.star
    if which in (1, 3):
        pairs = [(l, k) for k in range(1, DIM + 1) for l in range(1, min(k, max_l) + 1)]
    else:
        pairs = [(l, k) for k in range(0, DIM) for l in range(1, min(DIM - k, max_l) + 1)]
    for l, k in _spread(pairs, ctx.cases):
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
        yield lhs - rhs


def _check_pullback_functorial(ctx: CheckContext) -> Iterator[Piece]:
    rng = ctx.rng
    for _ in range(max(1, ctx.cases // 8)):
        a, b = (
            ExactMatrix([[random_fraction(rng) if rng.random() < 0.3 else int(i == j) for j in range(DIM)] for i in range(DIM)])
            for _ in range(2)
        )
        k = rng.randint(0, 3)
        beta = random_tensor(rng, FORM, k)
        yield pullback_linear(a @ b, beta) - pullback_linear(b, pullback_linear(a, beta))
        gamma = random_tensor(rng, FORM, rng.randint(0, 2))
        yield pullback_linear(a, wedge(beta, gamma)) - wedge(
            pullback_linear(a, beta), pullback_linear(a, gamma)
        )


def _rotation_matrix() -> ExactMatrix:
    rows = [[int(i == j) for j in range(DIM)] for i in range(DIM)]
    rows[0][:2] = [Fraction(3, 5), Fraction(-4, 5)]
    rows[1][:2] = [Fraction(4, 5), Fraction(3, 5)]
    return ExactMatrix(rows)


def _check_pullback_rotation_star(ctx: CheckContext) -> Iterator[Piece]:
    rot = _rotation_matrix()
    for _ in range(max(1, ctx.cases // 4)):
        k = ctx.rng.randint(0, DIM)
        beta = random_tensor(ctx.rng, FORM, k)
        yield hodge(pullback_linear(rot, beta)) - pullback_linear(rot, hodge(beta))


def _check_d_squared(ctx: CheckContext) -> Iterator[Piece]:
    rng = ctx.rng
    for _ in range(ctx.cases):
        k = rng.randint(0, DIM)
        beta = random_tensor(rng, FORM, k, max_poly_degree=3)
        yield exterior_derivative(exterior_derivative(beta))


def _check_codifferential_squared(ctx: CheckContext) -> Iterator[Piece]:
    rng = ctx.rng
    for _ in range(ctx.cases):
        k = rng.randint(2, DIM)
        beta = random_tensor(rng, FORM, k, max_poly_degree=3)
        yield codifferential(codifferential(beta))


def _check_homotopy_identity(ctx: CheckContext) -> Iterator[Piece]:
    for k in _spread(range(1, DIM + 1), ctx.cases):
        beta = random_tensor(ctx.rng, FORM, k, max_poly_degree=3)
        yield homotopy_pair(beta).identity_residual()


def _check_homotopy_closed(ctx: CheckContext) -> Iterator[Piece]:
    # a fixed nonzero closed form first: every random draw may have d = 0
    yield homotopy_pair(dx(0, 1)).exactness_residual()
    rng = ctx.rng
    for _ in range(ctx.cases):
        k = rng.randint(0, DIM - 1)
        closed = exterior_derivative(random_tensor(rng, FORM, k, max_poly_degree=3))
        yield homotopy_pair(closed).exactness_residual()


# -- Cayley form checks -------------------------------------------------------


def _check_cayley_term_count(ctx: CheckContext) -> Iterator[Piece]:
    psi = cayley_form()
    yield len(psi.terms) - 14
    for poly in psi.terms.values():
        yield abs(poly.constant_value()) - 1
    yield psi.coefficient((0, 1, 2, 3)) - 1
    # "- dx^{1526}" canonicalizes to +1 on (1,2,5,6)
    yield psi.coefficient((1, 2, 5, 6)) - 1


def _check_cayley_self_dual(ctx: CheckContext) -> Iterator[Piece]:
    psi = cayley_form()
    yield ctx.star(psi) - psi


def _check_cayley_closed(ctx: CheckContext) -> Iterator[Piece]:
    yield exterior_derivative(cayley_form())


def _check_cayley_norm(ctx: CheckContext) -> Iterator[Piece]:
    psi = cayley_form()
    yield inner(psi, psi) - 14


def _check_cayley_wedge_self(ctx: CheckContext) -> Iterator[Piece]:
    psi = cayley_form()
    yield wedge(psi, psi) - vol() * inner(psi, psi)


def _check_two_form_split(ctx: CheckContext) -> Iterator[Piece]:
    # every basis two-form first, so each column of both projectors is read
    for idx in basis(2):
        yield from project2(dx(*idx)).residuals().values()
    for _ in range(ctx.cases):
        yield from project2(random_tensor(ctx.rng, FORM, 2)).residuals().values()


def _check_two_form_spectrum(ctx: CheckContext) -> Iterator[Piece]:
    t_matrix = two_form_operator_matrix()
    yield eigenspace_dimension(t_matrix, -3) - 7
    yield eigenspace_dimension(t_matrix, 1) - 21
    yield t_matrix.trace()
    yield t_matrix @ t_matrix + t_matrix * 2 - ExactMatrix.identity(28) * 3


def _check_three_form_split(ctx: CheckContext) -> Iterator[Piece]:
    for _ in range(ctx.cases):
        yield from project3(random_tensor(ctx.rng, FORM, 3)).residuals().values()
    # the image of any vector contraction sits entirely in the 8-part
    for i in range(DIM):
        yield project3(contract(mv(i), cayley_form())).components["3_48"]


def _check_three_form_spectrum(ctx: CheckContext) -> Iterator[Piece]:
    s_matrix = three_form_operator_matrix()
    yield eigenspace_dimension(s_matrix, -7) - 8
    yield eigenspace_dimension(s_matrix, 0) - 48
    yield s_matrix.trace() + 56
    yield s_matrix @ s_matrix + s_matrix * 7


def _check_four_form_split(ctx: CheckContext) -> Iterator[Piece]:
    report = project4(cayley_form())
    yield from report.residuals().values()
    yield report.components["4_1"] - cayley_form()
    for _ in range(ctx.cases):
        yield from project4(random_tensor(ctx.rng, FORM, 4)).residuals().values()


def _check_four_form_seven_rank(ctx: CheckContext) -> Iterator[Piece]:
    yield spin7._generator_pairings().rank() - 7


def _check_lemma2_minus7(ctx: CheckContext) -> Iterator[Piece]:
    psi = cayley_form()
    star = ctx.star
    for alpha in _coordinate_samples(ctx, FORM, 5):
        yield star(wedge(psi, star(wedge(psi, alpha)))) + alpha * 7


def _check_map_rank_vectors(ctx: CheckContext) -> Iterator[Piece]:
    matrix = map_matrix(1)
    yield matrix.nrows - 56
    yield matrix.ncols - 8
    yield matrix.rank() - 8


def _check_map_rank_two(ctx: CheckContext) -> Iterator[Piece]:
    matrix = map_matrix(2)
    yield matrix.nrows - 28
    yield matrix.ncols - 28
    yield matrix.rank() - 28
    # Q _| Psi = star(Psi ^ flat(Q)): the same matrix built through the wedge and Hodge kernels
    wedge_star = structure_matrix((hodge(wedge(cayley_form(), dx(*idx))) for idx in basis(2)), 2)
    yield 0 if matrix == wedge_star else 1


def _check_map_rank_three(ctx: CheckContext) -> Iterator[Piece]:
    matrix = map_matrix(3)
    yield matrix.nrows - 8
    yield matrix.ncols - 56
    yield matrix.rank() - 8
    yield matrix.nullity() - 48
    wedge_map = structure_matrix((wedge(dx(*idx), cayley_form()) for idx in basis(3)), 7)
    yield 0 if matrix.nullspace().column_span_equals(wedge_map.nullspace()) else 1


def _check_psi2_roundtrip(ctx: CheckContext) -> Iterator[Piece]:
    psi = cayley_form()
    # every dx^{ij} and e_i ^ e_j first, so each column of the inverse is read
    for idx in basis(2):
        yield contract(psi2_inverse(dx(*idx)), psi) - dx(*idx)
        yield psi2_inverse(contract(mv(*idx), psi)) - mv(*idx)
    for _ in range(ctx.cases):
        beta = random_tensor(ctx.rng, FORM, 2)
        yield contract(psi2_inverse(beta), psi) - beta
        q = random_tensor(ctx.rng, MULTIVECTOR, 2)
        yield psi2_inverse(contract(q, psi)) - q


def _check_psi3_section(ctx: CheckContext) -> Iterator[Piece]:
    psi = cayley_form()
    for alpha in _coordinate_samples(ctx, FORM, 5):
        yield contract(psi3_section(alpha), psi) - alpha


def _check_triple_product_example(ctx: CheckContext) -> Iterator[Piece]:
    yield contract(mv(0, 1, 2), cayley_form()) - dx(3)
    yield triple_product(mv(0, 1, 2)) - mv(3)
    yield ctx.star(dx(0, 1, 2, 4, 5, 6, 7)) - dx(3)


def _check_triple_product_norm(ctx: CheckContext) -> Iterator[Piece]:
    for _ in range(ctx.cases):
        q = random_decomposable(ctx.rng, 3)
        image = triple_product(q)
        yield inner(image, image) - inner(flat(q), flat(q))


def _check_seven_star(ctx: CheckContext) -> Iterator[Piece]:
    # identity_report("seven_star") evaluated through ctx.star, so the Hodge mutation reaches it
    psi = cayley_form()
    for x_field in _coordinate_samples(ctx, MULTIVECTOR, 3):
        yield wedge(contract(x_field, psi), psi) - ctx.star(flat(x_field)) * 7


def _check_seven_norm(ctx: CheckContext) -> Iterator[Piece]:
    for x_field in _coordinate_samples(ctx, MULTIVECTOR, 3):
        yield from spin7.identity_report("seven_norm", x_field).values()


def _check_decomposable_minus6(ctx: CheckContext) -> Iterator[Piece]:
    yield from spin7.identity_report("decomposable_minus6", mv(0), mv(1)).values()
    for _ in range(ctx.cases):
        u = random_vector_field(ctx.rng)
        v = random_vector_field(ctx.rng)
        yield from spin7.identity_report("decomposable_minus6", u, v).values()


def _check_norm_split_minus27(ctx: CheckContext) -> Iterator[Piece]:
    for _ in range(ctx.cases):
        q = random_tensor(ctx.rng, MULTIVECTOR, 2)
        yield from spin7.identity_report("norm_split_minus27", q).values()


def _check_norm_split_three(ctx: CheckContext) -> Iterator[Piece]:
    yield from spin7.identity_report("norm_split_three", mv(0, 1, 2)).values()
    norms = project3(flat(mv(0, 1, 2))).norms()
    yield norms["3_8"] - Fraction(1, 7)
    yield norms["3_48"] - Fraction(6, 7)
    for _ in range(ctx.cases):
        yield from spin7.identity_report("norm_split_three", random_decomposable(ctx.rng, 3)).values()


def _check_coexact_seven(ctx: CheckContext) -> Iterator[Piece]:
    star = ctx.star
    psi = cayley_form()
    for _ in range(ctx.cases):
        f = random_polynomial(ctx.rng, max_degree=3)
        q = cayley_3mvf_for(f)
        df = exterior_derivative(scalar_tensor(f))
        report = project3(flat(q))
        yield report.components["3_48"]
        codiff = -star(exterior_derivative(star(wedge(scalar_tensor(f), psi))))
        yield codiff - report.components["3_8"] * 7
        yield inner(df, df) - inner(flat(q), flat(q)) * 7


def _check_cayley_fn_constant(ctx: CheckContext) -> Iterator[Piece]:
    rng = ctx.rng
    for _ in range(ctx.cases):
        f = random_polynomial(rng, max_degree=3)
        df = exterior_derivative(scalar_tensor(f))
        eta = random_tensor(rng, FORM, 3)
        kernel_part = sharp(project3(eta).components["3_48"])
        q = cayley_3mvf_for(f) + kernel_part
        yield from spin7.identity_report("cayley_fn", q, df).values()


def _check_cayley2_constraint(ctx: CheckContext) -> Iterator[Piece]:
    for _ in range(ctx.cases):
        alpha = random_tensor(ctx.rng, FORM, 1, max_poly_degree=3)
        q = spin7.cayley_2mvf_for(alpha)
        yield cayley2_constraint(q)
        yield contract(q, cayley_form()) - exterior_derivative(alpha)


def _check_cayley_potential(ctx: CheckContext) -> Iterator[Piece]:
    rng = ctx.rng
    psi = cayley_form()
    yield exterior_derivative(spin7.cayley_potential(mv(0, 1, 2))) - dx(3)
    for _ in range(max(1, ctx.cases // 2)):
        gamma = random_tensor(rng, FORM, 1)
        q2 = spin7.cayley_2mvf_for(gamma)
        yield exterior_derivative(spin7.cayley_potential(q2)) - exterior_derivative(gamma)
        q3 = cayley_3mvf_for(random_polynomial(rng))
        yield exterior_derivative(spin7.cayley_potential(q3)) - contract(q3, psi)


def _check_locally_cayley_lie(ctx: CheckContext) -> Iterator[Piece]:
    rng = ctx.rng
    psi = cayley_form()
    for _ in range(ctx.cases):
        pick = rng.randrange(3)
        if pick == 0:
            q = GradedTensor(
                MULTIVECTOR, 2, {(rng.randrange(4), 4 + rng.randrange(4)): random_fraction(rng)}
            )
        elif pick == 1:
            q = spin7.cayley_2mvf_for(random_tensor(rng, FORM, 1))
        else:
            q = cayley_3mvf_for(random_polynomial(rng))
        yield lie_derivative(q, psi) if spin7.is_locally_cayley(q) else 1


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


def _check_schouten_vector_lie(ctx: CheckContext) -> Iterator[Piece]:
    for _ in range(ctx.cases):
        x_field = random_vector_field(ctx.rng)
        y_field = random_vector_field(ctx.rng)
        yield schouten(x_field, y_field) - _lie_bracket_oracle(x_field, y_field)


def _check_schouten_jacobi_vectors(ctx: CheckContext) -> Iterator[Piece]:
    for _ in range(max(1, ctx.cases // 2)):
        a, b, c = (random_vector_field(ctx.rng) for _ in range(3))
        yield (
            schouten(a, schouten(b, c))
            + schouten(b, schouten(c, a))
            + schouten(c, schouten(a, b))
        )
        yield schouten(a, b) + schouten(b, a)


def _check_schouten_symmetry(ctx: CheckContext) -> Iterator[Piece]:
    for q1, q2 in _spread([(q1, q2) for q1 in (1, 2, 3) for q2 in (1, 2, 3)], ctx.cases):
        a = random_tensor(ctx.rng, MULTIVECTOR, q1, max_terms=3)
        b = random_tensor(ctx.rng, MULTIVECTOR, q2, max_terms=3)
        yield schouten(a, b) - schouten(b, a) * _sign(q1 * q2)


def _check_schouten_leibniz(ctx: CheckContext) -> Iterator[Piece]:
    combos = [(q1, q2, q3) for q1 in (1, 2) for q2 in (1, 2) for q3 in (1, 2)]
    for q1, q2, q3 in _spread(combos, ctx.cases):
        a = random_tensor(ctx.rng, MULTIVECTOR, q1, max_terms=2)
        b = random_tensor(ctx.rng, MULTIVECTOR, q2, max_terms=2)
        c = random_tensor(ctx.rng, MULTIVECTOR, q3, max_terms=2)
        lhs = schouten(a, wedge(b, c))
        rhs = wedge(schouten(a, b), c) + wedge(b, schouten(a, c)) * _sign(q1 * q2 + q2)
        yield lhs - rhs


def _check_schouten_graded_jacobi(ctx: CheckContext) -> Iterator[Piece]:
    combos = [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 2, 3)]
    for q1, q2, q3 in _spread(combos, ctx.cases // 4):
        a = random_tensor(ctx.rng, MULTIVECTOR, q1, max_terms=2)
        b = random_tensor(ctx.rng, MULTIVECTOR, q2, max_terms=2)
        c = random_tensor(ctx.rng, MULTIVECTOR, q3, max_terms=2)
        yield (
            schouten(a, schouten(b, c)) * _sign(q1 * (q3 - 1))
            + schouten(b, schouten(c, a)) * _sign(q2 * (q1 - 1))
            + schouten(c, schouten(a, b)) * _sign(q3 * (q2 - 1))
        )


def _check_lie_d_commutation(ctx: CheckContext) -> Iterator[Piece]:
    rng = ctx.rng
    for _ in range(ctx.cases):
        q_deg = rng.randint(1, 3)
        k = rng.randint(q_deg - 1, DIM)
        q = random_tensor(rng, MULTIVECTOR, q_deg, max_terms=3)
        beta = random_tensor(rng, FORM, k)
        lhs = exterior_derivative(lie_derivative(q, beta))
        yield lhs - lie_derivative(q, exterior_derivative(beta)) * _sign(q_deg + 1)


def _two_multivectors_and_form(ctx: CheckContext) -> Iterator[tuple]:
    """``ctx.cases`` draws of (q1, q2, Q1, Q2, b): deg Q1, Q2 in {1, 2}, deg b >= q1 + q2."""
    rng = ctx.rng
    for _ in range(ctx.cases):
        q1_deg = rng.randint(1, 2)
        q2_deg = rng.randint(1, 2)
        k = rng.randint(q1_deg + q2_deg, DIM)
        q1 = random_tensor(rng, MULTIVECTOR, q1_deg, max_terms=3)
        q2 = random_tensor(rng, MULTIVECTOR, q2_deg, max_terms=3)
        yield q1_deg, q2_deg, q1, q2, random_tensor(rng, FORM, k)


def _check_lie_wedge_split(ctx: CheckContext) -> Iterator[Piece]:
    for q1_deg, _, q1, q2, beta in _two_multivectors_and_form(ctx):
        lhs = lie_derivative(wedge(q1, q2), beta)
        rhs = contract(q2, lie_derivative(q1, beta)) + lie_derivative(
            q2, contract(q1, beta)
        ) * _sign(q1_deg)
        yield lhs - rhs


def _check_bracket_contraction(ctx: CheckContext) -> Iterator[Piece]:
    for q1_deg, q2_deg, q1, q2, beta in _two_multivectors_and_form(ctx):
        lhs = contract(schouten(q1, q2), beta)
        rhs = lie_derivative(q1, contract(q2, beta)) * _sign(
            q1_deg * q2_deg + q2_deg
        ) - contract(q2, lie_derivative(q1, beta))
        yield lhs - rhs


# -- the registry -------------------------------------------------------------

CHECKS: list[tuple[str, str, str, Check]] = [
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

#: ``all``, then each check's scope in order of first appearance in :data:`CHECKS`.
SCOPES = ("all", *dict.fromkeys(scope for _, _, scope, _ in CHECKS))

#: The one static report note, keyed by check id.
NOTES = {
    "cayley_fn_constant": f"calibrated constant {CAYLEY_FUNCTION_CONSTANT}; the quoted 7 fails calibration",
}


def run_checks(
    scope: str = "all",
    seed: int = 0,
    cases: int = 64,
    star_flip_degree: int | None = None,
) -> dict:
    """Run the registry and assemble a deterministic report.

    Each check gets its own RNG keyed by ``(seed, check id)``; its residual
    is the summed mass of the pieces it yields, and its ``elapsed_s`` covers
    both the body and that sum.  A check body that raises a ``ValueError``
    (the base of every shape, solver and overflow error here) fails with
    the mass yielded so far and a note naming the exception.
    """
    if scope not in SCOPES:
        raise ValueError(f"scope must be one of {SCOPES}")
    # exactly an int: True would run one case, "7" would seed the RNG through its str(); None flips no star
    for name, value in (("seed", seed), ("cases", cases), ("star_flip_degree", star_flip_degree)):
        if type(value) is not int and (value is not None or name != "star_flip_degree"):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if cases < 1:
        raise ValueError(f"cases must be at least 1, got {cases}")
    if star_flip_degree is not None and not 0 <= star_flip_degree <= DIM:
        raise ValueError(f"mutation degree must be in 0..{DIM}, got {star_flip_degree}")
    star = hodge if star_flip_degree is None else flipped_hodge(star_flip_degree)
    checks: list[dict] = []
    for check_id, anchor, check_scope, check in CHECKS:
        if scope != "all" and check_scope != scope:
            continue
        ctx = CheckContext(rng=random.Random(f"{seed}:{check_id}"), cases=cases, star=star)
        note, mass, raised = NOTES.get(check_id, ""), Fraction(0), False
        start = time.perf_counter()
        try:
            for piece in check(ctx):
                mass += _mass(piece)
        except ValueError as exc:  # a solver or shape check refused what a broken operator gave it
            raised = True
            note = "; ".join(filter(None, (note, f"raised {type(exc).__name__}: {exc}")))
        elapsed = time.perf_counter() - start
        checks.append({
            "check_id": check_id,
            "anchor": anchor,
            "scope": check_scope,
            "status": "fail" if raised or mass else "pass",
            "residual": str(mass),
            "elapsed_s": round(elapsed, 6),
            "note": note,
        })
    failed = sum(check["status"] == "fail" for check in checks)
    report = {
        "scope": scope,
        "seed": seed,
        "cases": cases,
        "mutation": None
        if star_flip_degree is None
        else {"op": "hodge", "degree": star_flip_degree},
        "checks": checks,
        "counts": {"pass": len(checks) - failed, "fail": failed},
        "overall_status": "fail" if failed else "pass",
    }
    return report

