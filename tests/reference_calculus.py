"""Reference bracket, multivector Lie derivative and cone primitive for the
differential tests of ``cayley8.calculus``.

These are the index loops the three operators ran before they were written
as compositions of ``wedge``, ``contract``, the musical isomorphisms and the
codifferential:

* ``schouten`` expands its first argument into decomposables
  ``u1 ^ ... ^ ul`` (the coefficient rides on the first factor) and sums
  ``(-1)**(i+1) u1 ^ ... ^ ui-hat ^ ... ^ ul ^ L_{ui} Q`` over the factors;
* ``lie_derivative_multivector`` transports the coefficient and replaces
  one slot ``e_j`` at a time by ``[X, e_j] = - sum_m (d_j X^m) e_m``;
* ``homotopy_primitive`` expands ``E _| dx^I`` slot by slot with sign
  ``(-1)**slot`` and weights each monomial by ``1/(k + |exponent|)``.

``exterior_derivative`` is the body that ``d`` ran before derivatives had
their own kernel: one ``diff`` Polynomial per (term, variable), each reduced
by its own gcd, then one ``Polynomial.linear_sum`` of ``(sign, d_i f)``
pairs per output key.  ``diff`` is the field-lowering loop that
``Polynomial.diff`` ran on its own before it became one triple of
``Polynomial.sum_of_derivatives``.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

from reference_multiindex import canonicalize
from reference_tensor import _accumulate

from cayley8.multiindex import DIM, MASK, PARITY, MultiIndex
from cayley8.polynomial import _MASK, _SHIFTS, Polynomial, _reduced
from cayley8.tensor import (
    FORM,
    MULTIVECTOR,
    DegreeMismatch,
    GradedTensor,
    VarianceMismatch,
    _grouped_sum,
    wedge,
)


def diff(poly: Polynomial, i: int) -> Polynomial:
    shift = _SHIFTS[i]
    step = 1 << shift
    out = {}
    for k, v in poly._nums.items():
        e = (k >> shift) & _MASK
        if e:
            out[k - step] = v * e  # lowering one field is injective on keys
    return _reduced(out, poly._den)


def exterior_derivative(beta: GradedTensor) -> GradedTensor:
    assert beta.variance == FORM
    groups: defaultdict[int, list] = defaultdict(list)
    for idx, poly in beta.terms.items():
        m = MASK[idx]
        for i in range(DIM):
            bit = 1 << i
            if m & bit:  # dx^i ^ dx^idx vanishes
                continue
            g = diff(poly, i)
            if g:
                groups[m | bit].append((1 - 2 * PARITY[bit << 8 | m], g))
    return GradedTensor._raw(FORM, beta.degree + 1, _grouped_sum(groups, Polynomial.linear_sum))


def homotopy_primitive(beta: GradedTensor) -> GradedTensor:
    if beta.variance != FORM:
        raise VarianceMismatch("homotopy operator acts on forms")
    k = beta.degree
    if k == 0:
        raise DegreeMismatch("a degree-0 form has no primitive of lower degree")
    if k > DIM:
        return GradedTensor.zero(FORM, k - 1)
    out: dict[MultiIndex, Polynomial] = {}
    for idx, poly in beta.terms.items():
        for exp, num, den in poly.quotients():
            den *= k + sum(exp)  # the weight num/den
            # E _| dx^idx expanded slot by slot, scaled by x^exp
            for slot, j in enumerate(idx):
                raised = list(exp)
                raised[j] += 1
                mono = Polynomial.from_quotients([(raised, num if slot % 2 == 0 else -num, den)])
                _accumulate(out, idx[:slot] + idx[slot + 1 :], 1, mono)
    return GradedTensor._raw(FORM, k - 1, out)


def lie_derivative_multivector(x: GradedTensor, t: GradedTensor) -> GradedTensor:
    if x.variance != MULTIVECTOR or x.degree != 1:
        raise VarianceMismatch("lie_derivative_multivector needs a vector field")
    if t.variance != MULTIVECTOR:
        raise VarianceMismatch("lie_derivative_multivector acts on multivectors")
    components = {idx[0]: poly for idx, poly in x.terms.items()}
    out: dict[MultiIndex, Polynomial] = {}
    for jdx, f in t.terms.items():
        transported = Polynomial.zero()
        for m, xm in components.items():
            transported = transported + xm * f.diff(m)
        _accumulate(out, jdx, 1, transported)
        for slot, j in enumerate(jdx):
            for m, xm in components.items():
                rate = xm.diff(j)
                if rate.is_zero():
                    continue
                key, sign = canonicalize(jdx[:slot] + (m,) + jdx[slot + 1 :])
                if sign:
                    _accumulate(out, key, -sign, f * rate)
    return GradedTensor._raw(MULTIVECTOR, t.degree, out)


def schouten(q1: GradedTensor, q2: GradedTensor) -> GradedTensor:
    if q1.variance != MULTIVECTOR or q2.variance != MULTIVECTOR:
        raise VarianceMismatch("schouten bracket is defined on multivector fields")
    if q1.degree == 0 and q2.degree == 0:
        return GradedTensor.zero(MULTIVECTOR, -1)
    if q1.degree == 0:
        return schouten(q2, q1)
    out: dict[MultiIndex, Polynomial] = {}
    for jdx, f in q1.terms.items():
        for i, j in enumerate(jdx):
            factor = GradedTensor(
                MULTIVECTOR, 1, {(j,): f if i == 0 else Polynomial.one()}
            )
            rest_idx = jdx[:i] + jdx[i + 1 :]
            rest_coeff: Polynomial | Fraction = Fraction(1) if i == 0 else f
            rest = GradedTensor(MULTIVECTOR, len(rest_idx), {rest_idx: rest_coeff})
            term = wedge(rest, lie_derivative_multivector(factor, q2))
            sign = 1 if i % 2 == 0 else -1
            for key, coeff in term.terms.items():
                _accumulate(out, key, sign, coeff)
    return GradedTensor._raw(MULTIVECTOR, q1.degree + q2.degree - 1, out)
