"""Differential operators on polynomial-coefficient tensors.

Exterior derivative and codifferential, the Euler-field cone operator that
produces explicit primitives of closed forms on R^8, the Lie derivative of a
form along a multivector field, and the Schouten-Nijenhuis bracket.

All calibrated sign conventions:

* codifferential: ``delta = -star d star`` on every degree (dimension 8 is
  even, so no degree-dependent sign is needed);
* Schouten bracket on a decomposable first argument::

      [u1 ^ ... ^ ul, Q] = sum_i (-1)**(i+1) u1 ^ ... ^ ui-hat ^ ... ^ ul ^ L_{ui} Q

  which makes the bracket of two vector fields the classical Lie bracket.
  The resulting graded symmetry is ``[Q1, Q2] = (-1)**(q1*q2) [Q2, Q1]``
  (verified exhaustively in the test suite, which also freezes the Leibniz
  and Jacobi exponents).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .multiindex import DIM, MultiIndex, canonicalize, merge_sign
from .polynomial import Polynomial
from .tensor import (
    FORM,
    MULTIVECTOR,
    DegreeMismatch,
    GradedTensor,
    VarianceMismatch,
    _accumulate,
    contract,
    hodge,
    wedge,
)


def exterior_derivative(beta: GradedTensor) -> GradedTensor:
    """d: degree k forms to degree k+1 forms; d(d(beta)) = 0."""
    if beta.variance != FORM:
        raise VarianceMismatch("exterior derivative acts on forms")
    out: dict[MultiIndex, Polynomial] = {}
    for idx, poly in beta.terms.items():
        for i in range(DIM):
            g = poly.diff(i)
            if g.is_zero():
                continue
            key, sign = merge_sign((i,), idx)
            if sign:
                _accumulate(out, key, sign, g)
    return GradedTensor._raw(FORM, beta.degree + 1, out)


def codifferential(beta: GradedTensor) -> GradedTensor:
    """delta = -star d star; returns the zero tensor on degree 0."""
    if beta.variance != FORM:
        raise VarianceMismatch("codifferential acts on forms")
    if beta.degree == 0:
        return GradedTensor.zero(FORM, -1)
    return -hodge(exterior_derivative(hodge(beta)))


def euler_field() -> GradedTensor:
    """The radial vector field with components x0, ..., x7."""
    return GradedTensor(
        MULTIVECTOR, 1, {(i,): Polynomial.variable(i) for i in range(DIM)}
    )


def homotopy_primitive(beta: GradedTensor) -> GradedTensor:
    """Cone-operator primitive H(beta) on the star-shaped domain R^8.

    For ``beta = sum_I f_I dx^I`` of degree ``k >= 1``::

        H(beta) = sum_I  (int_0^1 t^(k-1) f_I(t x) dt) * (E _| dx^I)

    with ``E`` the Euler field.  Monomial by monomial the t-integral is the
    exact rational 1/(k + |exponent|), so the output stays in the polynomial
    ring.  Satisfies d(H(beta)) + H(d(beta)) = beta, hence closed forms get
    honest primitives.
    """
    if beta.variance != FORM:
        raise VarianceMismatch("homotopy operator acts on forms")
    k = beta.degree
    if k == 0:
        raise DegreeMismatch("a degree-0 form has no primitive of lower degree")
    if k > DIM:
        return GradedTensor.zero(FORM, k - 1)
    out: dict[MultiIndex, Polynomial] = {}
    for idx, poly in beta.terms.items():
        for exp, c in poly.terms.items():
            weight = c / (k + sum(exp))
            # E _| dx^idx expanded slot by slot, scaled by x^exp
            for slot, j in enumerate(idx):
                raised = list(exp)
                raised[j] += 1
                mono = Polynomial({tuple(raised): weight if slot % 2 == 0 else -weight})
                _accumulate(out, idx[:slot] + idx[slot + 1 :], 1, mono)
    return GradedTensor._raw(FORM, k - 1, out)


@dataclass(frozen=True)
class HomotopyPrimitive:
    """A form together with its cone-operator primitive."""

    input: GradedTensor
    primitive: GradedTensor

    def identity_residual(self) -> GradedTensor:
        """d(primitive) + H(d(input)) - input; identically zero."""
        tail = homotopy_primitive(exterior_derivative(self.input))
        return exterior_derivative(self.primitive) + tail - self.input

    def exactness_residual(self) -> GradedTensor:
        """d(primitive) - input; zero exactly when the input is closed."""
        return exterior_derivative(self.primitive) - self.input


def homotopy_pair(beta: GradedTensor) -> HomotopyPrimitive:
    return HomotopyPrimitive(beta, homotopy_primitive(beta))


def lie_derivative(q: GradedTensor, beta: GradedTensor) -> GradedTensor:
    """Lie derivative of a form along a multivector field.

    Computed literally as ``Q _| d(beta) - (-1)^q d(Q _| beta)``; degree
    underflow returns the zero tensor.
    """
    if q.variance != MULTIVECTOR:
        raise VarianceMismatch("lie_derivative expects a multivector field")
    if beta.variance != FORM:
        raise VarianceMismatch("lie_derivative expects a form")
    degree = beta.degree - q.degree + 1
    if q.degree > beta.degree + 1:
        return GradedTensor.zero(FORM, degree)
    first = contract(q, exterior_derivative(beta))
    if q.degree > beta.degree:
        second = GradedTensor.zero(FORM, degree)
    else:
        second = exterior_derivative(contract(q, beta))
    return first - second if q.degree % 2 == 0 else first + second


def lie_derivative_multivector(x: GradedTensor, t: GradedTensor) -> GradedTensor:
    """Classical Lie derivative of a multivector field along a vector field.

    ``L_X (f e_J) = (X f) e_J + f * sum_slots e_{j1} ^ .. ^ [X, e_j] ^ .. ``
    with ``[X, e_j] = - sum_m (d_j X^m) e_m``.
    """
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
    """Schouten-Nijenhuis bracket of multivector fields.

    The first argument is expanded into decomposables ``u1 ^ ... ^ ul``
    (the polynomial coefficient rides on the first factor) and the bracket
    is the signed sum over removing one factor and Lie-deriving the second
    argument along it; see the module docstring for the sign.

    Degree-0 arguments are supported: the bracket against a function reduces
    to directional derivatives, and a degree-0 first argument is routed
    through the calibrated graded symmetry (exponent q1*q2, even here).
    """
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


__all__ = [
    "exterior_derivative",
    "codifferential",
    "euler_field",
    "homotopy_primitive",
    "HomotopyPrimitive",
    "homotopy_pair",
    "lie_derivative",
    "lie_derivative_multivector",
    "schouten",
]
