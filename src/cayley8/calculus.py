"""Differential operators on polynomial-coefficient tensors.

Exterior derivative and codifferential, the Euler-field cone operator that
produces explicit primitives of closed forms on R^8, the Lie derivative of a
form along a multivector field, and the Schouten-Nijenhuis bracket.

Sign conventions:

* codifferential: ``delta = -star d star`` on every degree, 0 included
  (dimension 8 is even, so no degree-dependent sign is needed);
* Schouten bracket, defined on a decomposable first argument by::

      [u1 ^ ... ^ ul, Q] = sum_i (-1)**(i+1) u1 ^ ... ^ ui-hat ^ ... ^ ul ^ L_{ui} Q

  which makes the bracket of two vector fields the classical Lie bracket.
  The resulting graded symmetry is ``[Q1, Q2] = (-1)**(q1*q2) [Q2, Q1]``
  (verified exhaustively in the test suite, which also freezes the Leibniz
  and Jacobi exponents).

The bracket is computed by Koszul's formula, as the failure of the
divergence ``-sharp delta flat`` to be a derivation; the cone primitive is a
contraction with the Euler field, ``tensor.euler_field``, the field the
linear pullback also reads.  Only ``exterior_derivative`` walks index
positions, and it reads its signs from the ``multiindex.PARITY`` table; no
other operator here computes a permutation sign.  No operator here
computes a derivative either: ``exterior_derivative`` hands its signed
``(sign, i, f)`` triples to ``Polynomial.sum_of_derivatives``, one call
per output key.  The differential test
against the expansion above (``tests/reference_calculus.py``) pins the
equality on every pair of degrees.  No operator branches on degrees outside
0..8, where the tensor kernels return zero tensors.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

from .multiindex import INDEX, MASK, PARITY
from .polynomial import Polynomial, _summed, _unpack
from .tensor import (
    FORM, MULTIVECTOR, DegreeMismatch, GradedTensor,
    _expect, _grouped_sum, contract, euler_field, flat, hodge, sharp, wedge,
)


def exterior_derivative(beta: GradedTensor) -> GradedTensor:
    """d: degree k forms to degree k+1 forms; d(d(beta)) = 0.

    ``d(f dx^I) = sum_i (d_i f) dx^i ^ dx^I``, taken only for the variables
    ``f`` has (``Polynomial.variable_mask``).  The terms of each output key
    are ``(sign, i, f)`` triples, ``dx^i ^ dx^I`` signed by
    ``PARITY[1 << i << 8 | I]``, and each key is one
    ``Polynomial.sum_of_derivatives``: no derivative is built on its own.
    A key whose derivatives cancel is dropped.
    """
    _expect(beta, FORM)
    groups: defaultdict[int, list] = defaultdict(list)
    for idx, poly in beta.terms.items():
        m = MASK[idx]
        for i in INDEX[poly.variable_mask() & ~m]:  # elsewhere d_i f or dx^i ^ dx^idx vanishes
            bit = 1 << i
            groups[m | bit].append((1 - 2 * PARITY[bit << 8 | m], i, poly))
    return GradedTensor._raw(FORM, beta.degree + 1, _grouped_sum(groups, Polynomial.sum_of_derivatives))


def codifferential(beta: GradedTensor) -> GradedTensor:
    """delta = -star d star; on a function it is the zero tensor of degree -1."""
    _expect(beta, FORM)
    return -hodge(exterior_derivative(hodge(beta)))


def homotopy_primitive(beta: GradedTensor) -> GradedTensor:
    """Cone-operator primitive H(beta) on the star-shaped domain R^8.

    For ``beta = sum_I f_I dx^I`` of degree ``k >= 1``::

        H(beta) = E _| sum_I (int_0^1 t^(k-1) f_I(t x) dt) dx^I

    with ``E`` the Euler field.  Monomial by monomial the t-integral is the
    exact rational weight 1/(k + |exponent|), so the output stays in the
    polynomial ring.  Satisfies d(H(beta)) + H(d(beta)) = beta, hence closed
    forms get honest primitives.
    """
    _expect(beta, FORM)
    k = beta.degree
    if k < 1:
        raise DegreeMismatch(f"a degree-{k} form has no primitive of lower degree")
    weighted = {
        idx: _summed([(key, num, poly._den * (k + sum(_unpack(key)))) for key, num in poly._nums.items()])
        for idx, poly in beta.terms.items()
    }
    return contract(euler_field(), GradedTensor._raw(FORM, k, weighted))


@dataclass(frozen=True)
class HomotopyPrimitive:
    """A form together with its cone-operator primitive.

    Both residuals read ``d(primitive)``, taken once per pair.
    """

    input: GradedTensor
    primitive: GradedTensor

    @cached_property
    def _primitive_derivative(self) -> GradedTensor:
        return exterior_derivative(self.primitive)

    def identity_residual(self) -> GradedTensor:
        """d(primitive) + H(d(input)) - input; identically zero."""
        return self.exactness_residual() + homotopy_primitive(exterior_derivative(self.input))

    def exactness_residual(self) -> GradedTensor:
        """d(primitive) - input; zero exactly when the input is closed."""
        return self._primitive_derivative - self.input


def homotopy_pair(beta: GradedTensor) -> HomotopyPrimitive:
    return HomotopyPrimitive(beta, homotopy_primitive(beta))


def lie_derivative(q: GradedTensor, beta: GradedTensor) -> GradedTensor:
    """Lie derivative of a form along a multivector field.

    Computed literally as ``Q _| d(beta) - (-1)^q d(Q _| beta)``; a term
    whose contraction underflows is the zero form.
    """
    _expect(q, MULTIVECTOR)
    _expect(beta, FORM)
    first = contract(q, exterior_derivative(beta))
    second = exterior_derivative(contract(q, beta))
    return first - second if q.degree % 2 == 0 else first + second


def lie_derivative_multivector(x: GradedTensor, t: GradedTensor) -> GradedTensor:
    """Classical Lie derivative of a multivector field along a vector field.

    ``L_X T = [X, T]``, the Schouten bracket with a vector field.
    """
    _expect(x, MULTIVECTOR, 1)
    _expect(t, MULTIVECTOR)
    return schouten(x, t)


def schouten(q1: GradedTensor, q2: GradedTensor) -> GradedTensor:
    """Schouten-Nijenhuis bracket of multivector fields, by Koszul's formula.

    With ``a = flat(Q1)`` of degree q1 and ``b = flat(Q2)``::

        flat([Q1, Q2]) = delta(a) ^ b + (-1)^q1 a ^ delta(b) - delta(a ^ b)

    Degree-0 arguments need no special case: delta of a degree-0 form is
    the zero tensor, so the bracket against a function reduces to
    directional derivatives, and two functions bracket to zero.
    """
    _expect(q1, MULTIVECTOR)
    _expect(q2, MULTIVECTOR)
    a, b = flat(q1), flat(q2)
    a_db = wedge(a, codifferential(b))
    koszul = wedge(codifferential(a), b) - codifferential(wedge(a, b))
    return sharp(koszul + a_db if q1.degree % 2 == 0 else koszul - a_db)


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
