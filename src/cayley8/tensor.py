"""Sparse alternating tensors on flat R^8: wedge, contraction, Hodge star.

A :class:`GradedTensor` is a single-degree alternating tensor, tagged either
``form`` (covariant) or ``multivector`` (contravariant), stored as a sparse
map from sorted multi-indices to :class:`~cayley8.polynomial.Polynomial`
coefficients.  The metric is the flat Euclidean one with orientation
vol = dx0^...^dx7, so the musical isomorphisms leave coefficients untouched
and the Hodge star is pure index combinatorics.

Contraction order
-----------------
A decomposable multivector contracts into a form first wedge factor
innermost::

    (u1 ^ u2 ^ ... ^ ul) _| beta  =  ul _| ( ... (u2 _| (u1 _| beta)))

Every sign-sensitive identity in this package and its test suite assumes
this order; :func:`cayley8.multiindex.contraction` computes its sign.

Signed accumulation
-------------------
Every tensor-building loop adds its signed terms through
:func:`_accumulate`, which drops a key as soon as its coefficient cancels,
so no stored tensor ever holds a zero coefficient.  Bilinear products
(``wedge``, ``contract``) run the single pair loop :func:`_bilinear`.

Values are immutable after construction and all operations are pure, so
everything here is safe to share across threads without locking.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .multiindex import (
    DIM,
    FULL,
    MultiIndex,
    canonicalize,
    complement,
    contraction,
    merge_sign,
    star_sign,
)
from .polynomial import Polynomial, Rational, as_fraction, as_polynomial

FORM = "form"
MULTIVECTOR = "multivector"

class TensorError(ValueError):
    """Base class for shape errors on graded tensors."""


class VarianceMismatch(TensorError):
    """Raised when an operation mixes forms and multivectors unlawfully."""


class DegreeMismatch(TensorError):
    """Raised when tensor degrees violate an operation's contract."""


Coefficient = Polynomial | Rational


class GradedTensor:
    """A degree-homogeneous alternating tensor with polynomial coefficients.

    ``terms`` maps strictly increasing index tuples of length ``degree`` to
    nonzero polynomials.  Degrees outside 0..8 are allowed only for the zero
    tensor (the exterior algebra vanishes there), which lets operations like
    ``d`` on top degree return an honest zero instead of erroring.
    """

    __slots__ = ("variance", "degree", "terms")

    def __init__(
        self,
        variance: str,
        degree: int,
        terms: Mapping[Iterable[int], Coefficient] | None = None,
    ):
        if variance not in (FORM, MULTIVECTOR):
            raise VarianceMismatch(f"unknown variance {variance!r}")
        if not isinstance(degree, int):
            raise DegreeMismatch(f"degree must be an integer, got {degree!r}")
        clean: dict[MultiIndex, Polynomial] = {}
        if terms:
            if not 0 <= degree <= DIM:
                raise DegreeMismatch(f"nonzero tensor of impossible degree {degree}")
            for idx, coeff in terms.items():
                poly = as_polynomial(coeff)
                if poly.is_zero():
                    continue
                key, sign = canonicalize(idx)
                if sign == 0:
                    continue  # repeated index: the alternating part vanishes
                if len(key) != degree:
                    raise DegreeMismatch(
                        f"index {tuple(idx)} has length {len(key)}, expected {degree}"
                    )
                _accumulate(clean, key, sign, poly)
        object.__setattr__(self, "variance", variance)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("GradedTensor is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, variance: str, degree: int) -> "GradedTensor":
        return cls(variance, degree)

    @classmethod
    def _raw(cls, variance: str, degree: int, terms: dict[MultiIndex, Polynomial]) -> "GradedTensor":
        """Wrap ``terms`` as they are: sorted keys of length ``degree``, no zeros."""
        out = cls.__new__(cls)
        object.__setattr__(out, "variance", variance)
        object.__setattr__(out, "degree", degree)
        object.__setattr__(out, "terms", terms)
        return out

    # -- inspection ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, idx: Iterable[int]) -> Polynomial:
        key, sign = canonicalize(idx)
        if sign == 0:
            return Polynomial.zero()
        poly = self.terms.get(key, Polynomial.zero())
        return poly if sign > 0 else -poly

    def sorted_terms(self) -> list[tuple[MultiIndex, Polynomial]]:
        return [(idx, self.terms[idx]) for idx in sorted(self.terms)]

    def coeff_l1(self) -> Fraction:
        """Exact L1 mass of all rational coefficients; zero iff zero tensor."""
        return sum((p.abs_coeff_sum() for p in self.terms.values()), Fraction(0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedTensor):
            return NotImplemented
        if self.variance != other.variance:
            return False
        if self.is_zero() and other.is_zero():
            return True
        return self.degree == other.degree and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if not self.terms:
            return f"GradedTensor({self.variance}, {self.degree}, 0)"
        base = "dx" if self.variance == FORM else "e"
        parts = [
            f"({coeff!r})*{base}{''.join(map(str, idx))}" if idx else f"({coeff!r})"
            for idx, coeff in self.sorted_terms()
        ]
        return " + ".join(parts)

    # -- linear structure ------------------------------------------------

    def _check_addable(self, other: "GradedTensor") -> None:
        if self.variance != other.variance:
            raise VarianceMismatch("cannot add a form and a multivector")
        if self.degree != other.degree and not (self.is_zero() or other.is_zero()):
            raise DegreeMismatch(f"cannot add degrees {self.degree} and {other.degree}")

    def __add__(self, other: "GradedTensor") -> "GradedTensor":
        if not isinstance(other, GradedTensor):
            return NotImplemented
        self._check_addable(other)
        out = dict(self.terms)
        for idx, poly in other.terms.items():
            _accumulate(out, idx, 1, poly)
        degree = other.degree if self.is_zero() else self.degree
        return GradedTensor._raw(self.variance, degree, out)

    def __neg__(self) -> "GradedTensor":
        return GradedTensor._raw(self.variance, self.degree, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "GradedTensor") -> "GradedTensor":
        if not isinstance(other, GradedTensor):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar: Coefficient) -> "GradedTensor":
        poly = as_polynomial(scalar)
        if poly.is_zero():
            return GradedTensor.zero(self.variance, self.degree)
        return GradedTensor._raw(
            self.variance, self.degree, {k: v * poly for k, v in self.terms.items()}
        )

    __rmul__ = __mul__

    def __truediv__(self, scalar: Rational) -> "GradedTensor":
        return self * (Fraction(1) / as_fraction(scalar))

    def __xor__(self, other: "GradedTensor") -> "GradedTensor":
        return wedge(self, other)

    def wedge(self, other: "GradedTensor") -> "GradedTensor":
        return wedge(self, other)


# -- basis helpers --------------------------------------------------------


def dx(*indices: int, coeff: Coefficient = 1) -> GradedTensor:
    """Basis form dx^{i1...ik}; unsorted indices canonicalize with sign."""
    return GradedTensor(FORM, len(indices), {tuple(indices): coeff})


def mv(*indices: int, coeff: Coefficient = 1) -> GradedTensor:
    """Basis multivector e_{i1} ^ ... ^ e_{ik}."""
    return GradedTensor(MULTIVECTOR, len(indices), {tuple(indices): coeff})


def unit(variance: str = FORM) -> GradedTensor:
    """The constant function 1 as a degree-0 tensor."""
    return GradedTensor(variance, 0, {(): 1})


def vol() -> GradedTensor:
    """The orientation form dx0 ^ ... ^ dx7."""
    return GradedTensor(FORM, DIM, {FULL: 1})


def scalar_tensor(poly: Coefficient, variance: str = FORM) -> GradedTensor:
    """Wrap a polynomial as a degree-0 tensor."""
    return GradedTensor(variance, 0, {(): poly})


# -- signed accumulation -----------------------------------------------------


def _accumulate(out: dict[MultiIndex, Polynomial], key: MultiIndex, sign: int, poly: Polynomial) -> None:
    """Add ``sign * poly`` into ``out[key]``; a coefficient that cancels is dropped."""
    if sign < 0:
        poly = -poly
    acc = out.get(key)
    total = poly if acc is None else acc + poly
    if total.is_zero():
        out.pop(key, None)
    else:
        out[key] = total


def _bilinear(a: GradedTensor, b: GradedTensor, pair) -> dict[MultiIndex, Polynomial]:
    """Sum ``sign * pa * pb`` into ``key`` over all term pairs of ``a`` and ``b``.

    ``pair(ia, ib)`` returns ``(key, sign)``, or ``None`` or sign 0 when the
    pair of basis elements contributes nothing.
    """
    out: dict[MultiIndex, Polynomial] = {}
    for ia, pa in a.terms.items():
        for ib, pb in b.terms.items():
            hit = pair(ia, ib)
            if hit and hit[1]:
                _accumulate(out, hit[0], hit[1], pa * pb)
    return out


# -- core operations -------------------------------------------------------


def wedge(a: GradedTensor, b: GradedTensor) -> GradedTensor:
    """Exterior product; degrees beyond 8 collapse to the zero tensor."""
    if a.variance != b.variance:
        raise VarianceMismatch("wedge of a form with a multivector is undefined")
    degree = a.degree + b.degree
    if degree > DIM:
        return GradedTensor.zero(a.variance, degree)
    return GradedTensor._raw(a.variance, degree, _bilinear(a, b, merge_sign))


def contract(q: GradedTensor, beta: GradedTensor) -> GradedTensor:
    """Interior product of a multivector into a form (coefficients multiply).

    Degree drops by ``q.degree``; raises :class:`DegreeMismatch` when the
    multivector degree exceeds the form degree.
    """
    if q.variance != MULTIVECTOR:
        raise VarianceMismatch("first argument of contract must be a multivector")
    if beta.variance != FORM:
        raise VarianceMismatch("second argument of contract must be a form")
    if q.degree > beta.degree:
        raise DegreeMismatch(
            f"cannot contract a degree-{q.degree} multivector into a degree-{beta.degree} form"
        )
    return GradedTensor._raw(FORM, beta.degree - q.degree, _bilinear(q, beta, contraction))


def hodge(beta: GradedTensor) -> GradedTensor:
    """Hodge star for the flat metric and orientation vol = dx0^...^dx7.

    Defined on both variances (the star extends to multivectors with the
    same combinatorics).  Satisfies star(star(b)) = (-1)^k b in this even
    dimension and b ^ star(b) = <b, b> vol for forms.
    """
    if not 0 <= beta.degree <= DIM:
        if beta.is_zero():
            return GradedTensor.zero(beta.variance, DIM - beta.degree)
        raise DegreeMismatch(f"hodge undefined on degree {beta.degree}")
    out: dict[MultiIndex, Polynomial] = {}
    for idx, poly in beta.terms.items():
        sign = star_sign(idx)
        out[complement(idx)] = poly if sign > 0 else -poly
    return GradedTensor._raw(beta.variance, DIM - beta.degree, out)


def musical(t: GradedTensor) -> GradedTensor:
    """Flip variance; the flat metric leaves coefficients untouched."""
    other = MULTIVECTOR if t.variance == FORM else FORM
    return GradedTensor._raw(other, t.degree, dict(t.terms))


def sharp(beta: GradedTensor) -> GradedTensor:
    """Form -> multivector musical isomorphism."""
    if beta.variance != FORM:
        raise VarianceMismatch("sharp expects a form")
    return musical(beta)


def flat(q: GradedTensor) -> GradedTensor:
    """Multivector -> form musical isomorphism."""
    if q.variance != MULTIVECTOR:
        raise VarianceMismatch("flat expects a multivector")
    return musical(q)


def inner(a: GradedTensor, b: GradedTensor) -> Polynomial:
    """Pointwise inner product; sorted basis indices are orthonormal."""
    if a.variance != b.variance:
        raise VarianceMismatch("inner product needs matching variance")
    if a.degree != b.degree and not (a.is_zero() or b.is_zero()):
        raise DegreeMismatch("inner product needs matching degree")
    total = Polynomial.zero()
    small, large = (a, b) if len(a.terms) <= len(b.terms) else (b, a)
    for idx, pa in small.terms.items():
        pb = large.terms.get(idx)
        if pb is not None:
            total = total + pa * pb
    return total


# -- linear pullback -------------------------------------------------------


def _as_rows(matrix) -> list[list[Fraction]]:
    rows = [[as_fraction(v) for v in row] for row in matrix]
    if len(rows) != DIM or any(len(r) != DIM for r in rows):
        raise ValueError(f"expected an {DIM}x{DIM} matrix")
    return rows


def _invert_rows(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    from .linalg import ExactMatrix, SingularMatrixError  # local import, no cycle

    try:
        return ExactMatrix(rows).inverse().rows
    except SingularMatrixError:
        raise SingularMatrixError(
            "pullback of a multivector needs an invertible matrix"
        ) from None


def pullback_linear(matrix, t: GradedTensor) -> GradedTensor:
    """Pull a tensor back along the linear map x -> A x.

    For forms this is the usual pullback (no invertibility needed).  For
    multivector fields it is the pullback of vector fields along the map,
    which requires A to be invertible.  Functorial contravariantly:
    ``pullback(A @ B) = pullback(B) o pullback(A)``; commutes with wedge.
    """
    rows = _as_rows(matrix)
    if t.variance == FORM:
        frame_rows = rows  # dx^i pulls back to sum_j A[i][j] dx^j
    else:
        inv = _invert_rows(rows)
        # e_j pulls back to column j of A^-1
        frame_rows = [[inv[i][j] for i in range(DIM)] for j in range(DIM)]
    images = [
        GradedTensor(t.variance, 1, {(j,): frame_rows[i][j] for j in range(DIM)})
        for i in range(DIM)
    ]
    out: dict[MultiIndex, Polynomial] = {}
    for idx, poly in t.terms.items():
        term = scalar_tensor(poly.compose_linear(rows), t.variance)
        for i in idx:
            term = wedge(term, images[i])
        for key, coeff in term.terms.items():
            _accumulate(out, key, 1, coeff)
    return GradedTensor._raw(t.variance, t.degree, out)
