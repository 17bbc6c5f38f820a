"""Reference tensor kernels for the differential tests of ``cayley8.tensor``.

These are the pair loops that ``wedge``, ``contract``, ``inner``, ``hodge``,
``exterior_derivative`` and ``pullback_linear`` ran before the grouped
kernel: every term pair gets its sign from the index loops of
``reference_multiindex.py``, is multiplied into its own ``Polynomial`` and
added into its output key one at a time, and a key is dropped as soon as
its coefficient cancels.  Linear substitution into coefficients builds its
images through the ``Fraction``-mapping constructor, as it used to, and
``pullback_linear`` takes the dense ``Fraction`` rows that the library took
before a linear map became an 8x8 ``ExactMatrix``.
``construct``, ``combine`` and ``document_to_tensor`` are the same
one-term-at-a-time ``_accumulate`` path for the ``GradedTensor``
constructor, ``+``/``-`` and the document loader, on valid input.

``grouped_combine`` and ``apply_matrix`` are the grouped bodies that
``+``/``-`` and ``apply_matrix`` ran before linear sums had their own
kernel: every term is a ``(sign, poly, ONE)`` or ``(entry, poly, 1/den)``
triple, and each output key is one ``Polynomial.sum_of_products``.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

from reference_multiindex import canonicalize, complement, contraction, merge_sign, star_sign

from cayley8.linalg import ExactMatrix
from cayley8.multiindex import DIM, MASK, MultiIndex, basis, basis_position
from cayley8.polynomial import ONE, Polynomial, _unpack, as_polynomial
from cayley8.tensor import FORM, MULTIVECTOR, GradedTensor, _grouped_sum


def _accumulate(out: dict[MultiIndex, Polynomial], key: MultiIndex, sign: int, poly: Polynomial) -> None:
    if sign < 0:
        poly = -poly
    acc = out.get(key)
    total = poly if acc is None else acc + poly
    if total.is_zero():
        out.pop(key, None)
    else:
        out[key] = total


def construct(variance: str, degree: int, terms) -> GradedTensor:
    out: dict[MultiIndex, Polynomial] = {}
    for idx, coeff in terms.items():
        poly = as_polynomial(coeff)
        key, sign = canonicalize(idx)
        if sign and poly:
            assert len(key) == degree
            _accumulate(out, key, sign, poly)
    return GradedTensor._raw(variance, degree, out)


def combine(a: GradedTensor, b: GradedTensor, sign: int) -> GradedTensor:
    """``a + sign * b``."""
    out = dict(a.terms)
    for idx, poly in b.terms.items():
        _accumulate(out, idx, sign, poly)
    return GradedTensor._raw(a.variance, b.degree if a.is_zero() else a.degree, out)


def grouped_combine(a: GradedTensor, b: GradedTensor, sign: int) -> GradedTensor:
    """``a + sign * b``, one ``(sign, poly, ONE)`` triple per term."""
    groups: defaultdict[int, list] = defaultdict(list)
    for idx, poly in a.terms.items():
        groups[MASK[idx]].append((1, poly, ONE))
    for idx, poly in b.terms.items():
        groups[MASK[idx]].append((sign, poly, ONE))
    degree = b.degree if a.is_zero() else a.degree
    return GradedTensor._raw(a.variance, degree, _grouped_sum(groups, Polynomial.sum_of_products))


def apply_matrix(matrix: ExactMatrix, t: GradedTensor, degree: int, variance: str) -> GradedTensor:
    """Coordinates of ``t`` through ``matrix``, one ``(entry, coeff, 1/den)`` triple per entry."""
    if not t.terms:
        return GradedTensor.zero(variance, degree)
    rows = basis(degree)
    assert (len(rows), len(basis(t.degree))) == matrix.shape
    columns = matrix.transpose()._nums
    scale = ONE._scaled(1, matrix._den)
    groups: defaultdict[int, list] = defaultdict(list)
    for idx, poly in t.terms.items():
        for i, entry in columns[basis_position(idx)].items():
            groups[MASK[rows[i]]].append((entry, poly, scale))
    return GradedTensor._raw(variance, degree, _grouped_sum(groups, Polynomial.sum_of_products))


def document_to_tensor(doc) -> GradedTensor:
    out: dict[MultiIndex, Polynomial] = {}
    for term in doc["terms"]:
        poly = Polynomial.from_quotients((m["exp"], int(m["num"]), int(m["den"])) for m in term["coeff"])
        key, sign = canonicalize(term["idx"])
        if sign:
            _accumulate(out, key, sign, poly)
    return GradedTensor._raw(doc["variance"], doc["degree"], out)


def _bilinear(a: GradedTensor, b: GradedTensor, pair) -> dict[MultiIndex, Polynomial]:
    out: dict[MultiIndex, Polynomial] = {}
    for ia, pa in a.terms.items():
        for ib, pb in b.terms.items():
            hit = pair(ia, ib)
            if hit and hit[1]:
                _accumulate(out, hit[0], hit[1], pa * pb)
    return out


def wedge(a: GradedTensor, b: GradedTensor) -> GradedTensor:
    assert a.variance == b.variance
    degree = a.degree + b.degree
    if degree > DIM:
        return GradedTensor.zero(a.variance, degree)
    return GradedTensor._raw(a.variance, degree, _bilinear(a, b, merge_sign))


def contract(q: GradedTensor, beta: GradedTensor) -> GradedTensor:
    assert (q.variance, beta.variance) == (MULTIVECTOR, FORM) and q.degree <= beta.degree
    return GradedTensor._raw(FORM, beta.degree - q.degree, _bilinear(q, beta, contraction))


def hodge(beta: GradedTensor) -> GradedTensor:
    out: dict[MultiIndex, Polynomial] = {}
    for idx, poly in beta.terms.items():
        sign = star_sign(idx)
        out[complement(idx)] = poly if sign > 0 else -poly
    return GradedTensor._raw(beta.variance, DIM - beta.degree, out)


def inner(a: GradedTensor, b: GradedTensor) -> Polynomial:
    total = Polynomial.zero()
    small, large = (a, b) if len(a.terms) <= len(b.terms) else (b, a)
    for idx, pa in small.terms.items():
        pb = large.terms.get(idx)
        if pb is not None:
            total = total + pa * pb
    return total


def exterior_derivative(beta: GradedTensor) -> GradedTensor:
    assert beta.variance == FORM
    out: dict[MultiIndex, Polynomial] = {}
    for idx, poly in beta.terms.items():
        for i in range(DIM):
            if i in idx:  # dx^i ^ dx^idx vanishes
                continue
            g = poly.diff(i)
            if g.is_zero():
                continue
            key, sign = merge_sign((i,), idx)
            _accumulate(out, key, sign, g)
    return GradedTensor._raw(FORM, beta.degree + 1, out)


def compose_linear(poly: Polynomial, rows: list[list[Fraction]]) -> Polynomial:
    images = [
        Polynomial({tuple(1 if m == j else 0 for m in range(DIM)): rows[i][j] for j in range(DIM) if rows[i][j]})
        for i in range(DIM)
    ]
    out = Polynomial.zero()
    for key, v in poly._nums.items():
        term = Polynomial.constant(v)
        for i, e in enumerate(_unpack(key)):
            if e:
                term = term * images[i] ** e
        out = out + term
    return out * Fraction(1, poly._den)


def pullback_linear(matrix, t: GradedTensor) -> GradedTensor:
    rows = [[Fraction(v) for v in row] for row in matrix]
    if t.variance == FORM:
        frame_rows = rows
    else:
        inv = ExactMatrix(rows).inverse().rows
        frame_rows = [[inv[i][j] for i in range(DIM)] for j in range(DIM)]
    images = [GradedTensor(t.variance, 1, {(j,): frame_rows[i][j] for j in range(DIM)}) for i in range(DIM)]
    out: dict[MultiIndex, Polynomial] = {}
    for idx, poly in t.terms.items():
        term = GradedTensor(t.variance, 0, {(): compose_linear(poly, rows)})
        for i in idx:
            term = wedge(term, images[i])
        for key, coeff in term.terms.items():
            _accumulate(out, key, 1, coeff)
    return GradedTensor._raw(t.variance, t.degree, out)
