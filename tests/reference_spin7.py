"""Reference Lambda^4_7 projection for the differential tests of ``cayley8.spin7``.

The 70x70 orthogonal projector B (B^T B)^-1 B^T onto the span of the 28
generators, where the columns of B are the generators at the pivot columns
of their matrix, applied entry by entry to the polynomial coordinates of a
four-form.  This is how ``project4`` computed the 7-part before it summed
over the generators directly.
"""

from __future__ import annotations

from functools import cache

from cayley8.linalg import ExactMatrix
from cayley8.multiindex import MultiIndex, basis, basis_position
from cayley8.polynomial import Polynomial
from cayley8.spin7 import seven_part_generators
from cayley8.tensor import FORM, GradedTensor


def transpose(matrix: ExactMatrix) -> ExactMatrix:
    return ExactMatrix([list(col) for col in zip(*matrix.rows)])


@cache
def seven_part_projector() -> ExactMatrix:
    """Orthogonal projector (70x70) onto the span of the 28 generators."""
    columns = [
        [g.coefficient(idx).constant_value() for idx in basis(4)] for g in seven_part_generators()
    ]
    _, pivots = ExactMatrix.from_columns(columns).rref()
    b = ExactMatrix.from_columns([columns[p] for p in pivots])
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

