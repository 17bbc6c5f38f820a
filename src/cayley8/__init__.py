"""Exact exterior calculus on R^8 specialized to the Cayley four-form.

All arithmetic is over arbitrary-precision rationals; every identity the
package exposes holds bit-exactly, and the verification harness checks them
with zero tolerance.
"""

from .calculus import (
    HomotopyPrimitive,
    codifferential,
    exterior_derivative,
    homotopy_pair,
    homotopy_primitive,
    lie_derivative,
    lie_derivative_multivector,
    schouten,
)
from .linalg import ExactMatrix, SingularMatrixError
from .polynomial import Polynomial, x
from .spin7 import (
    CAYLEY_FUNCTION_CONSTANT,
    DecompositionReport,
    NotLocallyCayleyError,
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
    three_form_operator,
    three_form_operator_matrix,
    triple_product,
    two_form_operator,
    two_form_operator_matrix,
)
from .tensor import (
    FORM,
    MULTIVECTOR,
    DegreeMismatch,
    GradedTensor,
    TensorError,
    VarianceMismatch,
    contract,
    dx,
    euler_field,
    flat,
    hodge,
    inner,
    mv,
    musical,
    pullback_linear,
    scalar_tensor,
    sharp,
    unit,
    vol,
    wedge,
)

__version__ = "0.1.0"
