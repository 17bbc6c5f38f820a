"""Sparse alternating tensors on flat R^8: wedge, contraction, Hodge star.

A :class:`GradedTensor` is a single-degree alternating tensor, tagged either
``form`` (covariant) or ``multivector`` (contravariant), stored as a sparse
map from sorted multi-indices to :class:`~cayley8.polynomial.Polynomial`
coefficients.  The metric is the flat Euclidean one with orientation
vol = dx0^...^dx7, so the musical isomorphisms leave coefficients untouched
and the Hodge star is pure index combinatorics.  Outside degrees 0..8, where
the algebra vanishes, each kernel returns the zero tensor of its formula's
degree without a branch: no masks are disjoint past degree 8, none of a
multivector lies inside a form of lower degree, a zero has no terms to star.

Contraction order
-----------------
A decomposable multivector contracts into a form first wedge factor
innermost::

    (u1 ^ u2 ^ ... ^ ul) _| beta  =  ul _| ( ... (u2 _| (u1 _| beta)))

Every sign-sensitive identity in this package and its test suite assumes
this order.  Its sign, like every permutation sign here, is one lookup in
the table :data:`cayley8.multiindex.PARITY`: contracting ``q`` into ``f``
gives ``PARITY[q << 8 | f ^ q]`` on index masks.

Signed accumulation
-------------------
Each output coefficient is one Polynomial built in one pass, its terms
grouped by output index mask.  Every such sum goes through
:func:`_grouped_sum`, which calls the :class:`~cayley8.polynomial.Polynomial`
kernel its caller names once per group:

- :meth:`~cayley8.polynomial.Polynomial.sum_of_products` on ``(sign, a, b)``
  triples, the term pairs :func:`_bilinear` finds for ``wedge`` and
  ``contract``.  ``inner`` is one such sum; in ``inner(t, t)`` each triple
  is a square ``(1, p, p)``, which takes each cross pair of terms once.
- :meth:`~cayley8.polynomial.Polynomial.sum_of_derivatives` on
  ``(sign, i, f)`` triples, from ``exterior_derivative`` (in ``calculus``),
  which builds no derivative to add up.
- :meth:`~cayley8.polynomial.Polynomial.linear_sum` on ``(c, poly)`` pairs
  with ``c`` an int, which scales and adds integer numerators and checks no
  exponent.  The constructor, ``pullback_linear`` and the document loader
  feed it their signed terms.  :func:`apply_matrix` sends the coefficient
  vector of a tensor through a constant :class:`~cayley8.linalg.ExactMatrix`
  of integers over one denominator ``den``: one ``(entry, coeff)`` pair per
  nonzero integer entry of a column the tensor has a coefficient on, that
  column being a row of the matrix's cached transpose, and one linear sum
  over ``den`` per output index; nothing is kept per matrix outside the
  matrix.

:func:`quadratic_form` is the square norm of such an image read through the
source: ``<m t, m t> = t^T (m^T m) t``, one ``sum_of_products`` over the
Gram denominator, on the pairs of ``t``'s terms that a nonzero integer
entry of the Gram matrix ``m.gram()`` (cached on ``m``, as its transpose
is) joins, each square once and each cross pair once, doubled.  For a
sparse ``t`` and a dense image this squares far fewer terms than
``inner(m t, m t)``.

``+`` and ``-`` copy the first operand's terms and walk the second's: a key
of one operand keeps its Polynomial (or its negation), and a shared key is
one two-pair linear sum, skipped when a difference is of two equal
coefficients.  A tensor times a rational scales each coefficient.  A group
that cancels is dropped, so no tensor holds a zero coefficient.

Refusals
--------
An operator refuses a bad tensor argument with one rule, written once in
:func:`_expect`: anything but a tensor first (``TypeError``), then variance
(:class:`VarianceMismatch`), then degree (:class:`DegreeMismatch`), and a
zero tensor passes any degree.  Operators here, in ``calculus`` and in
``spin7`` call it, passing no variance where they take both.  ``+``,
``-``, ``wedge`` and ``inner`` call it on the second operand with the
first's variance and, but for ``wedge`` or a zero first operand, degree;
``+`` and ``-`` leave a non-tensor to Python's reflected operators, which
raise ``TypeError``.

Tensor coordinates
------------------
Row (or column) ``i`` of a matrix on degree ``k`` is ``basis(k)[i]``:
:func:`structure_matrix` builds the matrix of a map from the images of
basis tensors, and :func:`apply_matrix` sends coordinates back through it.
``apply_matrix`` is the one place here where matrix entries become tensor
coefficients; nothing here reads a matrix's dense ``rows``.

Linear pullback
---------------
A linear map is an 8x8 :class:`~cayley8.linalg.ExactMatrix` ``A``.
:func:`pullback_linear` sends ``dx^i`` to row ``i`` of ``A`` (``A^T``
applied to ``dx^i``), ``e_j`` to column ``j`` of ``A^-1`` (``A^-1``
applied to ``e_j``), and each coefficient through
:meth:`~cayley8.polynomial.Polynomial.compose` with
``x_i -> sum_j A[i][j] x_j``, the coefficients of ``A`` applied to the
Euler field :func:`euler_field`.  That field lives here, and the cone
primitive of ``calculus`` reads the same cached tensor.

Values are immutable after construction and all operations are pure, so
everything here is safe to share across threads without locking.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import cache, partial
from typing import Callable, Iterable, Mapping

from .linalg import ExactMatrix, SingularMatrixError, _expect_matrix
from .multiindex import DIM, FULL, INDEX, MASK, PARITY, MultiIndex, basis, basis_position, canonicalize, complement, star_sign
from .polynomial import Polynomial, Rational, as_polynomial

FORM = "form"
MULTIVECTOR = "multivector"

class TensorError(ValueError):
    """Base class for shape errors on graded tensors."""


class VarianceMismatch(TensorError):
    """Raised when an operation mixes forms and multivectors unlawfully."""


class DegreeMismatch(TensorError):
    """Raised when tensor degrees violate an operation's contract."""


def _expect(t: GradedTensor, variance: str | None = None, degree: int | None = None) -> None:
    """Refuse ``t`` unless it is a tensor of ``variance`` and ``degree``, each if given; a zero passes any degree."""
    try:
        actual = t.variance
    except AttributeError:
        raise TypeError(f"expected a GradedTensor, got {type(t).__name__}") from None
    if variance is not None and actual != variance:
        raise VarianceMismatch(f"expected a {variance}, got a {actual}")
    if degree is not None and t.degree != degree and t.terms:
        raise DegreeMismatch(f"expected degree {degree}, got {t.degree}")


Coefficient = Polynomial | Rational


class GradedTensor:
    """A degree-homogeneous alternating tensor with polynomial coefficients.

    ``terms`` maps strictly increasing index tuples of length ``degree`` to
    nonzero polynomials.  Degrees outside 0..8 are allowed only for the zero
    tensor, which operations return there instead of erroring (``d`` on top
    degree, ``contract`` into a form of lower degree).  A bool
    degree raises :class:`DegreeMismatch`, as a document's does on loading.
    Internal constructors wrap finished term dicts with :meth:`_raw`, which
    writes the slots through their own setters.
    """

    __slots__ = ("variance", "degree", "terms")

    def __init__(
        self,
        variance: str,
        degree: int,
        terms: Mapping[Iterable[int], Coefficient] | None = None,
    ):
        GradedTensor._check_shape(variance, degree)
        groups: defaultdict[int, list] = defaultdict(list)
        if terms:
            if not 0 <= degree <= DIM:
                raise DegreeMismatch(f"nonzero tensor of impossible degree {degree}")
            for idx, coeff in terms.items():
                key, sign = canonicalize(idx)
                if len(key) != degree:
                    raise DegreeMismatch(
                        f"index {tuple(idx)} has length {len(key)}, expected {degree}"
                    )
                poly = as_polynomial(coeff)
                if sign and poly:  # sign 0: a repeated index, whose alternating part vanishes
                    groups[MASK[key]].append((sign, poly))
        _set_variance(self, variance)
        _set_degree(self, degree)
        _set_terms(self, _grouped_sum(groups, Polynomial.linear_sum))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("GradedTensor is immutable")

    @staticmethod
    def _check_shape(variance: str, degree: int) -> None:
        """Raise unless ``variance`` is a variance and ``degree`` a plain int: no bool, no other subclass."""
        if variance not in (FORM, MULTIVECTOR):
            raise VarianceMismatch(f"unknown variance {variance!r}")
        if type(degree) is not int:
            raise DegreeMismatch(f"degree must be an integer, got {degree!r}")

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, variance: str, degree: int) -> "GradedTensor":
        return cls(variance, degree)

    @classmethod
    def _raw(cls, variance: str, degree: int, terms: dict[MultiIndex, Polynomial]) -> "GradedTensor":
        """Wrap ``terms`` as they are: sorted keys of length ``degree``, no zeros."""
        out = cls.__new__(cls)
        _set_variance(out, variance)
        _set_degree(out, degree)
        _set_terms(out, terms)
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

    def _combine(self, other: "GradedTensor", sign: int) -> "GradedTensor":
        """``self + sign * other``, ``sign`` 1 or -1.

        A key of one operand keeps its Polynomial (or takes its negation);
        a shared key is one two-pair :meth:`Polynomial.linear_sum`, skipped
        when a difference cancels exactly, and a key that cancels is dropped.
        """
        if not isinstance(other, GradedTensor):
            return NotImplemented
        _expect(other, self.variance, self.degree if self.terms else None)
        terms = dict(self.terms)
        for idx, q in other.terms.items():
            p = terms.get(idx)
            if p is None:
                terms[idx] = q if sign > 0 else -q
            elif sign < 0 and p._den == q._den and p._nums == q._nums:
                del terms[idx]
            else:
                total = Polynomial.linear_sum(((1, p), (sign, q)))
                if total:
                    terms[idx] = total
                else:
                    del terms[idx]
        degree = other.degree if self.is_zero() else self.degree
        return GradedTensor._raw(self.variance, degree, terms)

    def __add__(self, other: "GradedTensor") -> "GradedTensor":
        return self._combine(other, 1)

    def __neg__(self) -> "GradedTensor":
        return GradedTensor._raw(self.variance, self.degree, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "GradedTensor") -> "GradedTensor":
        return self._combine(other, -1)

    def __mul__(self, scalar: Coefficient) -> "GradedTensor":
        if isinstance(scalar, (int, Fraction)) and scalar.__class__ is not bool:  # a bool goes on to be refused
            num, den = scalar.numerator, scalar.denominator
            if not num:
                return GradedTensor.zero(self.variance, self.degree)
            return GradedTensor._raw(
                self.variance, self.degree, {k: v._scaled(num, den) for k, v in self.terms.items()}
            )
        poly = as_polynomial(scalar)
        if poly.is_zero():
            return GradedTensor.zero(self.variance, self.degree)
        return GradedTensor._raw(
            self.variance, self.degree, {k: v * poly for k, v in self.terms.items()}
        )

    __rmul__ = __mul__


# The slots' own setters: they write past ``GradedTensor.__setattr__``, which refuses.
_set_variance, _set_degree, _set_terms = (GradedTensor.__dict__[name].__set__ for name in GradedTensor.__slots__)


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


@cache
def euler_field() -> GradedTensor:
    """The radial vector field with components x0, ..., x7."""
    return GradedTensor(MULTIVECTOR, 1, {(i,): Polynomial.variable(i) for i in range(DIM)})


# -- signed accumulation -----------------------------------------------------

#: Pair rules of :func:`_bilinear`: the part of a's mask that b's mask must
#: share.  Wedge pairs are disjoint, a contracted multivector lies inside the form.
DISJOINT, INSIDE = 0, 255


def _grouped_sum(groups: Mapping[int, list], kernel: Callable[[list], Polynomial]) -> dict[MultiIndex, Polynomial]:
    """One ``kernel(terms)`` per output mask, a ``Polynomial`` sum kernel; a sum that cancels is dropped."""
    out: dict[MultiIndex, Polynomial] = {}
    for key, terms in groups.items():
        poly = kernel(terms)
        if poly:
            out[INDEX[key]] = poly
    return out


def _bilinear(a: GradedTensor, b: GradedTensor, rule: int) -> dict[MultiIndex, Polynomial]:
    """Sum ``sign * pa * pb`` over the term pairs of ``a`` and ``b``, grouped by output key.

    A pair of masks ``ma``, ``mb`` contributes when ``ma & mb == ma & rule``;
    its key is ``ma ^ mb`` and its sign ``PARITY[ma << 8 | key & mb]``, which
    is the wedge sign for disjoint masks and the contraction sign for
    ``ma`` inside ``mb``.
    """
    groups: defaultdict[int, list] = defaultdict(list)
    b_terms = [(MASK[ib], pb) for ib, pb in b.terms.items()]
    for ia, pa in a.terms.items():
        ma = MASK[ia]
        shared, row = ma & rule, ma << 8
        for mb, pb in b_terms:
            if ma & mb == shared:
                key = ma ^ mb
                groups[key].append((1 - 2 * PARITY[row | key & mb], pa, pb))
    return _grouped_sum(groups, Polynomial.sum_of_products)


# -- tensor coordinates ------------------------------------------------------

def structure_matrix(images: Iterable[GradedTensor], degree: int) -> ExactMatrix:
    """Column j holds the constant coefficients of ``images[j]`` on the degree-``degree`` basis.

    A nonzero image whose degree is not ``degree`` is a :class:`DegreeMismatch`;
    images of either variance are read.
    """
    entries = []
    ncols = 0
    for j, image in enumerate(images):
        ncols = j + 1
        _expect(image, None, degree)
        for idx, poly in image.terms.items():
            if not poly.is_constant():
                raise ValueError("polynomial is not constant")
            entries += [(basis_position(idx), j, num, poly._den) for num in poly._nums.values()]
    return ExactMatrix.from_quotients((len(basis(degree)), ncols), entries)


def apply_matrix(matrix: ExactMatrix, t: GradedTensor, degree: int, variance: str) -> GradedTensor:
    """The tensor of ``variance`` and ``degree`` whose coordinates are ``matrix`` times those of ``t``.

    Coordinates run over the lexicographic bases of :func:`cayley8.multiindex.basis`,
    as in :func:`structure_matrix`: columns over that of ``t.degree``, rows
    over that of ``degree``.  The matrix is integer numerators over one
    denominator ``den``; the term of ``t`` at column ``j`` adds one
    ``(entry, coeff)`` pair per nonzero integer entry of row ``j`` of the
    transpose, and each output row is one ``Polynomial.linear_sum(pairs, den)``.
    """
    _expect_matrix(matrix, "apply_matrix")
    GradedTensor._check_shape(variance, degree)
    _expect(t)
    rows = basis(degree)
    if len(rows) != matrix.nrows or t.terms and len(basis(t.degree)) != matrix.ncols:  # a zero passes any degree
        raise DegreeMismatch(
            f"a {matrix.nrows}x{matrix.ncols} matrix does not map degree {t.degree} to degree {degree}"
        )
    if not t.terms:
        return GradedTensor.zero(variance, degree)
    columns = matrix.transpose()._nums
    groups: defaultdict[int, list] = defaultdict(list)
    for idx, poly in t.terms.items():
        for i, entry in columns[basis_position(idx)].items():
            groups[MASK[rows[i]]].append((entry, poly))
    return GradedTensor._raw(variance, degree, _grouped_sum(groups, partial(Polynomial.linear_sum, den=matrix._den)))


def quadratic_form(matrix: ExactMatrix, t: GradedTensor) -> Polynomial:
    """``<m t, m t>``, the square norm of ``apply_matrix(matrix, t, ...)``, read as ``t^T (m^T m) t``.

    The Gram matrix is ``matrix.gram()``, cached on the matrix itself.  The
    pair of ``t``'s terms at columns ``j <= k`` adds one ``(g, a, b)`` triple
    per nonzero integer entry ``g`` of row ``j`` of the Gram matrix, doubled
    off the diagonal, and the sum is one ``Polynomial.sum_of_products`` over
    the Gram denominator.  The image ``m t`` is never built.
    """
    _expect_matrix(matrix, "quadratic_form")
    _expect(t)
    if t.terms and len(basis(t.degree)) != matrix.ncols:  # a zero passes any degree
        raise DegreeMismatch(f"a {matrix.nrows}x{matrix.ncols} matrix does not act on degree {t.degree}")
    gram = matrix.gram()
    rows = gram._nums
    coords = {basis_position(idx): poly for idx, poly in t.terms.items()}
    triples = []
    for j, a in coords.items():
        for k, g in rows[j].items():
            if k == j:
                triples.append((g, a, a))
            elif k > j and k in coords:
                triples.append((2 * g, a, coords[k]))
    return Polynomial.sum_of_products(triples, gram._den)


# -- core operations -------------------------------------------------------


def wedge(a: GradedTensor, b: GradedTensor) -> GradedTensor:
    """Exterior product; past degree 8 no two masks are disjoint, so the result is zero."""
    _expect(a)
    _expect(b, a.variance)
    return GradedTensor._raw(a.variance, a.degree + b.degree, _bilinear(a, b, DISJOINT))


def contract(q: GradedTensor, beta: GradedTensor) -> GradedTensor:
    """Interior product of a multivector into a form (coefficients multiply).

    Degree drops by ``q.degree``, below 0 for a multivector of higher degree
    than the form, whose contraction is then the zero form.
    """
    _expect(q, MULTIVECTOR)
    _expect(beta, FORM)
    return GradedTensor._raw(FORM, beta.degree - q.degree, _bilinear(q, beta, INSIDE))


def hodge(beta: GradedTensor) -> GradedTensor:
    """Hodge star for the flat metric and orientation vol = dx0^...^dx7.

    Defined on both variances (the star extends to multivectors with the
    same combinatorics).  Satisfies star(star(b)) = (-1)^k b in this even
    dimension and b ^ star(b) = <b, b> vol for forms.
    """
    _expect(beta)
    out: dict[MultiIndex, Polynomial] = {}
    for idx, poly in beta.terms.items():
        sign = star_sign(idx)
        out[complement(idx)] = poly if sign > 0 else -poly
    return GradedTensor._raw(beta.variance, DIM - beta.degree, out)


def musical(t: GradedTensor) -> GradedTensor:
    """Flip variance; the flat metric leaves coefficients untouched."""
    _expect(t)
    other = MULTIVECTOR if t.variance == FORM else FORM
    return GradedTensor._raw(other, t.degree, dict(t.terms))


def sharp(beta: GradedTensor) -> GradedTensor:
    """Form -> multivector musical isomorphism."""
    _expect(beta, FORM)
    return musical(beta)


def flat(q: GradedTensor) -> GradedTensor:
    """Multivector -> form musical isomorphism."""
    _expect(q, MULTIVECTOR)
    return musical(q)


def inner(a: GradedTensor, b: GradedTensor) -> Polynomial:
    """Pointwise inner product; sorted basis indices are orthonormal."""
    _expect(a)
    _expect(b, a.variance, a.degree if a.terms else None)
    small, large = (a.terms, b.terms) if len(a.terms) <= len(b.terms) else (b.terms, a.terms)
    return Polynomial.sum_of_products([(1, pa, large[idx]) for idx, pa in small.items() if idx in large])


# -- linear pullback -------------------------------------------------------


def pullback_linear(matrix: ExactMatrix, t: GradedTensor) -> GradedTensor:
    """Pull a tensor back along the linear map x -> A x, ``A`` an 8x8 ``ExactMatrix``.

    For forms this is the usual pullback (no invertibility needed).  For
    multivector fields it is the pullback of vector fields along the map,
    which requires A to be invertible.  Functorial contravariantly:
    ``pullback(A @ B) = pullback(B) o pullback(A)``; commutes with wedge.
    """
    _expect_matrix(matrix, "pullback_linear")
    if matrix.shape != (DIM, DIM):
        raise ValueError(f"expected an {DIM}x{DIM} matrix, got {matrix.nrows}x{matrix.ncols}")
    _expect(t)
    if t.variance == FORM:
        frame = matrix.transpose()  # dx^i pulls back to row i of A
    else:
        try:
            frame = matrix.inverse()  # e_j pulls back to column j of A^-1
        except SingularMatrixError:
            raise SingularMatrixError("pullback of a multivector needs an invertible matrix") from None
    images = [apply_matrix(frame, GradedTensor(t.variance, 1, {(i,): 1}), 1, t.variance) for i in range(DIM)]
    ax = apply_matrix(matrix, euler_field(), 1, MULTIVECTOR)  # x_i pulls back to sum_j A[i][j] x_j
    coordinates = [ax.coefficient((i,)) for i in range(DIM)]
    groups: defaultdict[int, list] = defaultdict(list)
    for idx, poly in t.terms.items():
        term = scalar_tensor(poly.compose(coordinates), t.variance)
        for i in idx:
            term = wedge(term, images[i])
        for key, coeff in term.terms.items():
            groups[MASK[key]].append((1, coeff))
    return GradedTensor._raw(t.variance, t.degree, _grouped_sum(groups, Polynomial.linear_sum))
