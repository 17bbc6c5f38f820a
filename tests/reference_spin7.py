"""Reference Spin(7) operators for the differential tests of ``cayley8.spin7``.

``cayley8.spin7`` applies each constant-coefficient field operator as a
cached exact matrix through ``tensor.apply_matrix``.  The functions here are
the bodies those operators had before: T and S through the ``wedge`` and
``hodge`` kernels, the four-form 7-part as a sum over the 28 generators,
``psi2_inverse`` through the eigenspace split and ``psi3_section`` through
``contract``.  ``wedge_star`` is star(Psi ^ .) on every degree, whose
matrices ``spin7`` builds once, as the contraction matrices ``map_matrix``;
``kernel_matrix`` builds the matrix of any of these from its basis images.

``seven_part`` is older still: the 70x70 orthogonal projector
B (B^T B)^-1 B^T onto the span of the 28 generators, where the columns of B
are the generators at the pivot columns of their matrix, applied entry by
entry to the polynomial coordinates of a four-form.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import cache

from cayley8.linalg import ExactMatrix
from cayley8.multiindex import MASK, MultiIndex, basis, basis_position
from cayley8.polynomial import Polynomial
from cayley8.spin7 import DecompositionReport, cayley_form, seven_part_generators
from cayley8.tensor import (
    FORM,
    GradedTensor,
    _grouped_sum,
    contract,
    dx,
    hodge,
    inner,
    sharp,
    structure_matrix,
    wedge,
)


def wedge_star(alpha: GradedTensor) -> GradedTensor:
    """star(Psi ^ alpha) on forms of any degree; T on two-forms."""
    return hodge(wedge(cayley_form(), alpha))


def kernel_matrix(operator, degree: int, target: int) -> ExactMatrix:
    """The matrix of ``operator`` from ``degree``-forms to ``target``-forms, from its basis images."""
    return structure_matrix((operator(dx(*idx)) for idx in basis(degree)), target)


two_form_operator = wedge_star


def three_form_operator(eta: GradedTensor) -> GradedTensor:
    return wedge_star(wedge_star(eta))


def seven_part_sum(sigma: GradedTensor) -> GradedTensor:
    """pi_7(sigma) = 1/32 sum_g <sigma, g> g over the 28 generators g."""
    groups: defaultdict[int, list] = defaultdict(list)
    for gen in seven_part_generators():
        pairing = inner(sigma, gen) * Fraction(1, 32)
        if pairing.is_zero():
            continue
        for idx, coeff in gen.terms.items():
            groups[MASK[idx]].append((1, coeff, pairing))
    return GradedTensor._raw(FORM, 4, _grouped_sum(groups, Polynomial.sum_of_products))


def project2(beta: GradedTensor) -> DecompositionReport:
    image = two_form_operator(beta)
    part7 = (beta - image) * Fraction(1, 4)
    part21 = (beta * 3 + image) * Fraction(1, 4)
    return DecompositionReport(beta, {"2_7": part7, "2_21": part21})


def project3(eta: GradedTensor) -> DecompositionReport:
    part8 = three_form_operator(eta) * Fraction(-1, 7)
    return DecompositionReport(eta, {"3_8": part8, "3_48": eta - part8})


def project4(sigma: GradedTensor) -> DecompositionReport:
    psi = cayley_form()
    starred = hodge(sigma)
    part35 = (sigma - starred) * Fraction(1, 2)
    part1 = psi * (inner(sigma, psi) * Fraction(1, 14))
    part7 = seven_part_sum(sigma)
    part27 = sigma - part1 - part7 - part35
    return DecompositionReport(sigma, {"4_1": part1, "4_7": part7, "4_27": part27, "4_35": part35})


def defining_residuals(report: DecompositionReport) -> dict[str, GradedTensor | Polynomial]:
    psi = cayley_form()
    out: dict[str, GradedTensor | Polynomial] = {}
    for name, part in report.components.items():
        if name == "2_7":
            out[name] = two_form_operator(part) + part * 3
        elif name == "2_21":
            out[name] = two_form_operator(part) - part
        elif name == "3_8":
            witness = sharp(hodge(wedge(psi, report.input))) * Fraction(-1, 7)
            out[name] = part - contract(witness, psi)
        elif name == "3_48":
            out[name] = wedge(part, psi)
        elif name == "4_1":
            scale = inner(part, psi) * Fraction(1, 14)
            out[name] = part - psi * scale
        elif name == "4_7":
            out[name] = seven_part_sum(part) - part
            out["4_7_selfdual"] = hodge(part) - part
        elif name == "4_27":
            out["4_27_selfdual"] = hodge(part) - part
            out["4_27_wedge_psi"] = wedge(part, psi)
            pairings = [inner(part, gen) for gen in seven_part_generators()]
            out["4_27_wedge_7part"] = Polynomial.sum_of_products([(1, p, p) for p in pairings])
        elif name == "4_35":
            out[name] = hodge(part) + part
    return out


def psi2_inverse(beta: GradedTensor) -> GradedTensor:
    report = project2(beta)
    return sharp(report.components["2_7"] * Fraction(-1, 3) + report.components["2_21"])


def psi3_section(alpha: GradedTensor) -> GradedTensor:
    return sharp(contract(sharp(alpha), cayley_form())) * Fraction(-1, 7)


def transpose(matrix: ExactMatrix) -> ExactMatrix:
    return ExactMatrix([list(col) for col in zip(*matrix.rows)])


@cache
def seven_part_projector() -> ExactMatrix:
    """Orthogonal projector (70x70) onto the span of the 28 generators."""
    columns = [
        [g.coefficient(idx).constant_value() for idx in basis(4)] for g in seven_part_generators()
    ]
    _, pivots = ExactMatrix(zip(*columns, strict=True)).rref()
    b = ExactMatrix(zip(*(columns[p] for p in pivots), strict=True))
    bt = transpose(b)
    return b @ (bt @ b).inverse() @ bt


def apply_matrix(matrix: ExactMatrix, t: GradedTensor, degree: int, variance: str) -> GradedTensor:
    """Apply a constant rational matrix to the polynomial coordinates of ``t``."""
    coords: list[Polynomial] = [Polynomial.zero()] * matrix.ncols
    for idx, poly in t.terms.items():
        coords[basis_position(idx)] = poly
    keys = basis(degree)
    terms: dict[MultiIndex, Polynomial] = {}
    for i, row in enumerate(matrix.rows):
        acc = Polynomial.zero()
        for j, entry in enumerate(row):
            if entry and coords[j]:
                acc = acc + coords[j] * entry
        if not acc.is_zero():
            terms[keys[i]] = acc
    return GradedTensor._raw(variance, degree, terms)


def seven_part(sigma: GradedTensor) -> GradedTensor:
    return apply_matrix(seven_part_projector(), sigma, 4, FORM)
