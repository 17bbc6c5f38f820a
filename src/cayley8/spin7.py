"""The canonical Cayley four-form on R^8 and everything built from it.

Contents: the four-form itself, the projectors onto the irreducible
two-, three-, and four-form components of its stabilizer action, the exact
matrices of the contraction maps on multivector fields, their inverses and
sections, the triple product, the Cayley (Hamiltonian) multivector solvers,
and the pointwise identities exposed through :func:`identity_report`.

Each structure map has one home here; its exact matrix is
:func:`cayley8.tensor.structure_matrix` of the images of basis tensors,
cached immutably, so after first use everything is read-only and freely
shareable between threads.

The maps of Psi are built once, as :func:`map_matrix` of Q -> Q _| Psi
through the contraction kernel.  The same matrix is alpha -> star(Psi ^ alpha)
on k-forms: Q _| Psi = star(flat(Q) ^ star(Psi)) holds with sign +1 on
four-forms, and star(Psi) = Psi (registry checks ``multivector_identity_1``
and ``cayley_self_dual``; ``map_rank_two`` compares ``map_matrix(2)`` with
its ``hodge(wedge(Psi, dx^I))`` build).  Every field operator with constant
coefficients applies one cached matrix to the polynomial coordinates of its
argument through :func:`cayley8.tensor.apply_matrix`:

- :func:`two_form_operator` applies T = star(Psi ^ .) = ``map_matrix(2)``;
  :func:`project2` applies (I - T)/4 and takes the 21-part as the rest;
- :func:`three_form_operator` applies S = ``map_matrix(1) @ map_matrix(3)``,
  star(Psi ^ .) from three-forms to one-forms and back; the 8-part that
  :func:`project3` takes is -1/7 of it, the flat of :func:`psi3_section` of
  the one-form star(Psi ^ eta);
- :func:`project4` applies pi_7 = G G^T/32 (G the matrix of
  :func:`seven_part_generators`) and takes pi_35 = (I - star)/2 through
  the ``hodge`` kernel, which needs no matrix;
- :func:`psi2_inverse` applies T^-1 = (T + 2I)/3, read off
  T^2 + 2T - 3I = 0 with no elimination, and :func:`psi3_section`, the one
  section, applies ``map_matrix(1)`` to -1/7 of its one-form.

G is the 70x28 matrix of the 28 generators
g = flat(v) ^ (w _| Psi) - flat(w) ^ (v _| Psi), v < w, so that
pi_7(sigma) = 1/32 sum_g <sigma, g> g.  The generators are so(8) acting on
Psi; that action has kernel Lambda^2_21, so they span the 7-dimensional
Lambda^4_7.  Their Gram matrix G^T G has diagonal 8 and satisfies
(G^T G)^2 = 32 G^T G, so G G^T/32 is the orthogonal projector onto their
span (pinned in ``tests/test_spin7.py``).

Among the defining residuals, the two-form parts apply T, the 7-part pi_7
and the 27-part G^T; the 8-part goes through the wedge, Hodge and
contraction kernels themselves.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, partial

from .calculus import exterior_derivative, homotopy_primitive
from .linalg import ExactMatrix
from .multiindex import MASK, MultiIndex, basis
from .polynomial import Polynomial, Rational
from .tensor import (
    FORM,
    MULTIVECTOR,
    DegreeMismatch,
    GradedTensor,
    _expect,
    _grouped_sum,
    apply_matrix,
    contract,
    flat,
    hodge,
    inner,
    mv,
    scalar_tensor,
    sharp,
    structure_matrix,
    vol,
    wedge,
)

#: Sorted-index coefficients of the Cayley four-form.  Fourteen unit terms;
#: the unsorted presentations common in the literature canonicalize to these.
_CAYLEY_COEFFS: dict[MultiIndex, int] = {
    (0, 1, 2, 3): +1,
    (0, 1, 6, 7): -1,
    (0, 2, 5, 7): +1,
    (0, 3, 5, 6): -1,
    (0, 1, 4, 5): +1,
    (0, 2, 4, 6): +1,
    (0, 3, 4, 7): +1,
    (4, 5, 6, 7): +1,
    (2, 3, 4, 5): -1,
    (1, 3, 4, 6): +1,
    (1, 2, 4, 7): -1,
    (2, 3, 6, 7): +1,
    (1, 3, 5, 7): +1,
    (1, 2, 5, 6): +1,
}

#: Pointwise constant in ``flat(Q) ^ (Q _| Psi) ^ Psi = c * |df|^2 vol`` for
#: Cayley three-multivector fields.  Fixed by the exact ratio oracle in the
#: test suite; under these conventions the exact value is 1 (the
#: alternative 7 fails calibration).
CAYLEY_FUNCTION_CONSTANT = Fraction(1)


class NotLocallyCayleyError(ValueError):
    """Raised when a potential is requested for a non-closed contraction."""

    def __init__(self, derivative: GradedTensor):
        self.derivative = derivative
        super().__init__(
            "multivector field is not locally Cayley; "
            f"d(Q _| Psi) has L1 coefficient mass {derivative.coeff_l1()}"
        )


@cache
def cayley_form() -> GradedTensor:
    """The canonical Cayley four-form (14 unit terms, self-dual, closed)."""
    return GradedTensor(FORM, 4, dict(_CAYLEY_COEFFS))


# -- operators on two- and three-forms --------------------------------------


def two_form_operator(beta: GradedTensor) -> GradedTensor:
    """T(beta) = star(Psi ^ beta) on two-forms; eigenvalues -3 and +1."""
    _expect(beta, FORM, 2)
    return apply_matrix(two_form_operator_matrix(), beta, 2, FORM)


def three_form_operator(eta: GradedTensor) -> GradedTensor:
    """S(eta) = star(Psi ^ star(Psi ^ eta)) on three-forms; spectrum {-7, 0}."""
    _expect(eta, FORM, 3)
    image = apply_matrix(map_matrix(3), eta, 1, FORM)  # star(Psi ^ eta), a one-form
    return apply_matrix(map_matrix(1), image, 3, FORM)


# -- decomposition reports ---------------------------------------------------


#: The part each projection takes as the input minus the others.
_REMAINDERS = ("2_21", "3_48", "4_27")


def _combination(pairs: list[tuple[int, GradedTensor]], degree: int, den: int = 1) -> GradedTensor:
    """The form ``sum(c * t) / den`` over ``(c, t)`` pairs of forms, ``c`` an int: one linear sum per index."""
    groups: defaultdict[int, list] = defaultdict(list)
    for c, t in pairs:
        _expect(t, FORM, degree)
        for idx, poly in t.terms.items():
            groups[MASK[idx]].append((c, poly))
    return GradedTensor._raw(FORM, degree, _grouped_sum(groups, partial(Polynomial.linear_sum, den=den)))


@dataclass(frozen=True)
class DecompositionReport:
    """Named orthogonal components of a form under the Cayley splitting.

    One memo holds the inner products that :meth:`norms` and
    :meth:`orthogonality_residuals` read, keyed by the sorted pair of part
    names, so each pairing is taken once per report.  The remainder part r
    (``2_21``, ``3_48`` or ``4_27``) is the one each projection takes as the
    input minus the other parts a.  When the ``sum`` residual is zero, the
    pairings with r are read through the sparse input, exact by
    bilinearity, each as one linear sum of memo entries:

        |r|^2  = <in, in> - 2 sum <a, in> + sum <a, a> + 2 sum_{a<b} <a, b>
        <a, r> = <a, in> - sum_b <a, b>      (once <a, a> is in the memo)

    <in, in> and each <a, in> are taken once, so after :meth:`norms` no
    product reads the dense remainder.  The second rule waits for <a, a> so
    that the orthogonality residuals asked alone take no extra square.
    Otherwise, as on reports whose parts need not sum to the input, a
    pairing with r is the product with r itself: a broken remainder keeps
    its true norm.
    """

    input: GradedTensor
    components: dict[str, GradedTensor]
    _pairings: dict[tuple[str, str], Polynomial] = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def _sum(self) -> GradedTensor:
        return _combination([(1, self.input)] + [(-1, part) for part in self.components.values()], self.input.degree)

    def residual(self) -> GradedTensor:
        """``input`` minus the sum of the components, one linear sum per index, taken once.

        Zero by construction: ``project2``, ``project3`` and ``project4``
        take their last part (``2_21``, ``3_48``, ``4_27``) as the input
        minus the others, so this stays zero whatever the projector matrices
        hold.  It is kept as the ``sum`` residual that ``cayley8 decompose``
        reports; the ``defining:*`` residuals are what a wrong projector fails.
        A zero ``sum`` is also the gate of the rule that reads every pairing
        with the remainder through the input (see the class docstring).
        """
        return self._sum

    def _pairing(self, a: str, b: str) -> Polynomial:
        """<a, b> of two names, each a part or ``"input"``, from the memo or taken into it."""
        key = (a, b) if a <= b else (b, a)
        value = self._pairings.get(key)
        if value is None:
            value = self._pairings[key] = self._take(*key)
        return value

    def _take(self, a: str, b: str) -> Polynomial:
        """<a, b> through the input where the class docstring's rule applies, else the product itself."""
        if b in _REMAINDERS:
            a, b = b, a
        if a in _REMAINDERS and (a == b or (b, b) in self._pairings) and self.residual().is_zero():
            others = [name for name in self.components if name != a]
            if a != b:
                return Polynomial.linear_sum([(1, self._pairing(b, "input"))] + [(-1, self._pairing(b, c)) for c in others])
            pairs = [(1, self._pairing("input", "input"))]
            for i, c in enumerate(others):
                pairs += [(-2, self._pairing(c, "input")), (1, self._pairing(c, c))]
                pairs += [(2, self._pairing(c, d)) for d in others[i + 1 :]]
            return Polynomial.linear_sum(pairs)
        first, second = (self.input if name == "input" else self.components[name] for name in (a, b))
        return inner(first, second)

    def norms(self) -> dict[str, Polynomial]:
        """<a, a> of each part, taken into the memo.

        With a zero ``sum`` residual the remainder's norm is read through the
        input, |r|^2 = <in, in> - 2 sum <a, in> + sum <a, a> + 2 sum_{a<b} <a, b>;
        otherwise it is <r, r> itself.
        """
        return {name: self._pairing(name, name) for name in self.components}

    def orthogonality_residuals(self) -> dict[str, Polynomial]:
        """<a, b> of each pair of parts, as ``"a|b"`` with a < b, from the memo.

        Asked after :meth:`norms`, with a zero ``sum`` residual, a pairing
        with the remainder is read through the input,
        <a, r> = <a, in> - sum_b <a, b>, from the memo.  Asked first, or on
        parts that do not sum to the input, it is <a, r> itself.
        """
        names = sorted(self.components)
        return {f"{a}|{b}": self._pairing(a, b) for i, a in enumerate(names) for b in names[i + 1 :]}

    def defining_residuals(self) -> dict[str, "GradedTensor | Polynomial"]:
        """Exact residual of each component's defining equation(s).

        Two-form parts go through T, the 8-part through the wedge, Hodge and
        contraction kernels, and the four-form 7- and 27-parts through pi_7
        and G^T.
        """
        psi = cayley_form()
        out: dict[str, GradedTensor | Polynomial] = {}
        for name, part in self.components.items():
            if name == "2_7":
                out[name] = two_form_operator(part) + part * 3
            elif name == "2_21":
                out[name] = two_form_operator(part) - part
            elif name == "3_8":
                # the 8-part is w _| Psi with the witness w = -sharp(star(Psi ^ eta))/7
                witness = sharp(hodge(wedge(psi, self.input))) * Fraction(-1, 7)
                out[name] = part - contract(witness, psi)
            elif name == "3_48":
                out[name] = wedge(part, psi)
            elif name == "4_1":
                scale = inner(part, psi) * Fraction(1, 14)
                out[name] = part - psi * scale
            elif name == "4_7":
                out[name] = apply_matrix(_projector("4_7"), part, 4, FORM) - part
                out["4_7_selfdual"] = hodge(part) - part
            elif name == "4_27":
                out["4_27_selfdual"] = hodge(part) - part
                out["4_27_wedge_psi"] = wedge(part, psi)
                # the pairings with the 28 generators as a two-form; its square
                # norm is zero iff every pairing vanishes
                pairings = apply_matrix(_generator_pairings(), part, 2, FORM)
                out["4_27_wedge_7part"] = inner(pairings, pairings)
            elif name == "4_35":
                out[name] = hodge(part) + part
            else:  # pragma: no cover - unknown labels never constructed
                raise KeyError(name)
        return out

    def residuals(self) -> dict[str, "GradedTensor | Polynomial"]:
        """Every named residual: ``sum``, then ``defining:*``, then ``orthogonality:*``."""
        return {
            "sum": self.residual(),
            **{f"defining:{n}": v for n, v in sorted(self.defining_residuals().items())},
            **{f"orthogonality:{n}": v for n, v in sorted(self.orthogonality_residuals().items())},
        }


def project2(beta: GradedTensor) -> DecompositionReport:
    """Split a two-form into its 7- and 21-dimensional components."""
    _expect(beta, FORM, 2)
    part7 = apply_matrix(_projector("2_7"), beta, 2, FORM)
    return DecompositionReport(beta, {"2_7": part7, "2_21": beta - part7})


def _eight_part(eta: GradedTensor) -> GradedTensor:
    """The 8-dimensional component of a three-form, -1/7 S(eta): the flat of the section of star(Psi ^ eta)."""
    return flat(psi3_section(apply_matrix(map_matrix(3), eta, 1, FORM)))


def project3(eta: GradedTensor) -> DecompositionReport:
    """Split a three-form into its 8- and 48-dimensional components."""
    _expect(eta, FORM, 3)
    part8 = _eight_part(eta)
    return DecompositionReport(eta, {"3_8": part8, "3_48": eta - part8})


@cache
def seven_part_generators() -> tuple[GradedTensor, ...]:
    """The 28 four-forms v_flat ^ (w _| Psi) - w_flat ^ (v _| Psi)."""
    psi = cayley_form()
    gens = []
    for v, w in basis(2):
        gens.append(
            wedge(flat(mv(v)), contract(mv(w), psi))
            - wedge(flat(mv(w)), contract(mv(v), psi))
        )
    return tuple(gens)


def project4(sigma: GradedTensor) -> DecompositionReport:
    """Split a four-form into its 1-, 7-, 27-, and 35-dimensional components."""
    _expect(sigma, FORM, 4)
    psi = cayley_form()
    part35 = _combination([(1, sigma), (-1, hodge(sigma))], 4, 2)
    part1 = psi * (inner(sigma, psi) * Fraction(1, 14))
    part7 = apply_matrix(_projector("4_7"), sigma, 4, FORM)
    part27 = _combination([(1, sigma), (-1, part1), (-1, part7), (-1, part35)], 4)
    return DecompositionReport(
        sigma, {"4_1": part1, "4_7": part7, "4_27": part27, "4_35": part35}
    )


def decompose(t: GradedTensor) -> DecompositionReport:
    """Decompose a degree 2, 3, or 4 tensor; multivectors are flattened first."""
    _expect(t)
    form = flat(t) if t.variance == MULTIVECTOR else t
    if form.degree == 2:
        return project2(form)
    if form.degree == 3:
        return project3(form)
    if form.degree == 4:
        return project4(form)
    raise DegreeMismatch(f"no decomposition for degree {form.degree}")


# -- structure maps as exact matrices ---------------------------------------


@cache
def map_matrix(k: int) -> ExactMatrix:
    """Matrix of Q -> Q _| Psi from degree-k multivectors to (4-k)-forms.

    Rows run over the lexicographic basis of (4-k)-forms, columns over the
    basis of k-multivectors; shapes 56x8, 28x28, 8x56 for k = 1, 2, 3.  Read
    with k-form columns, it is also the matrix of alpha -> star(Psi ^ alpha).
    """
    if type(k) is not int or k not in (1, 2, 3):
        raise DegreeMismatch(f"contraction maps exist for degrees 1, 2, 3, not {k!r}")
    psi = cayley_form()
    return structure_matrix((contract(mv(*idx), psi) for idx in basis(k)), 4 - k)


def two_form_operator_matrix() -> ExactMatrix:
    """28x28 matrix of T(beta) = star(Psi ^ beta), which is ``map_matrix(2)``."""
    return map_matrix(2)


@cache
def three_form_operator_matrix() -> ExactMatrix:
    """56x56 matrix of S(eta) = star(Psi ^ star(Psi ^ eta)), ``map_matrix(1) @ map_matrix(3)``."""
    return map_matrix(1) @ map_matrix(3)


@cache
def _projector(name: str) -> ExactMatrix:
    """Matrix of the projection onto the component ``name``, built on first use.

    ``2_7`` = (I - T)/4 on two-forms, ``T.shifted(1) * -1/4``; on
    four-forms ``4_7`` = G G^T/32, G the 70x28 matrix of the generators
    (their Gram matrix is 32 times a projector).  ``2_21``, like ``3_48``
    and ``4_27``, has no matrix: its projection takes it as the form minus
    the other parts.  Nor has ``4_35``: the star is a signed relabel of
    basis four-forms, so (sigma - star(sigma))/2 goes through the ``hodge``
    kernel.
    """
    if name == "2_7":
        return two_form_operator_matrix().shifted(1) * Fraction(-1, 4)
    if name == "4_7":
        pairings = _generator_pairings()
        return pairings.transpose() @ pairings * Fraction(1, 32)
    raise KeyError(name)


@cache
def _generator_pairings() -> ExactMatrix:
    """28x70 matrix G^T: row j pairs a four-form with generator j."""
    return structure_matrix(seven_part_generators(), 4).transpose()


@cache
def _psi2_inverse_matrix() -> ExactMatrix:
    """28x28 inverse (T + 2I)/3 of T = ``map_matrix(2)``, read off T^2 + 2T - 3I = 0."""
    return map_matrix(2).shifted(-2) * Fraction(1, 3)


def eigenspace_dimension(matrix: ExactMatrix, eigenvalue: Rational) -> int:
    """Exact dimension of ker(matrix - eigenvalue I); eigenvalue 0 reads the matrix's own forward pass."""
    return matrix.shifted(eigenvalue).nullity()


# -- inverses, sections, solvers ---------------------------------------------


def psi2_inverse(beta: GradedTensor) -> GradedTensor:
    """The unique two-multivector Q with Q _| Psi = beta.

    Applies T^-1 = (T + 2I)/3, T = ``map_matrix(2)``; on the eigenspace
    split this is Q = sharp(-1/3 beta_7 + beta_21).
    """
    _expect(beta, FORM, 2)
    return apply_matrix(_psi2_inverse_matrix(), beta, 2, MULTIVECTOR)


def psi3_section(alpha: GradedTensor) -> GradedTensor:
    """A three-multivector Q with Q _| Psi = alpha (the canonical section).

    Q = -1/7 sharp(sharp(alpha) _| Psi) = -1/7 sharp(star(Psi ^ alpha)); its
    flat lies in the 8-dimensional component, so this is the section with
    vanishing 48-part.  ``map_matrix(1)`` is applied to -1/7 alpha, so the
    scaling touches 8 coefficients, not 56.  This is the only section:
    :func:`cayley_3mvf_for` and the 8-part of :func:`project3` go through it.
    """
    _expect(alpha, FORM, 1)
    return apply_matrix(map_matrix(1), alpha * Fraction(-1, 7), 3, MULTIVECTOR)


def triple_product(q: GradedTensor) -> GradedTensor:
    """The vector field X(Q) = sharp(Q _| Psi) of a three-multivector.

    On decomposables u ^ v ^ w this is sharp(w _| v _| u _| Psi).
    """
    _expect(q, MULTIVECTOR, 3)
    return sharp(contract(q, cayley_form()))


def _expect_field(q: GradedTensor) -> None:
    """Refuse anything but a multivector field of degree 1, 2 or 3."""
    _expect(q, MULTIVECTOR)
    if q.degree not in (1, 2, 3):
        raise DegreeMismatch(f"expected a multivector field of degree 1, 2, or 3, got degree {q.degree}")


def is_locally_cayley(q: GradedTensor) -> bool:
    """Whether d(Q _| Psi) = 0."""
    _expect_field(q)
    return exterior_derivative(contract(q, cayley_form())).is_zero()


def cayley_potential(q: GradedTensor) -> GradedTensor:
    """A form alpha with d(alpha) = Q _| Psi for locally Cayley Q.

    On R^8 closed means exact, so the cone-operator primitive always works;
    the potential is normalized by always returning that primitive.
    """
    _expect_field(q)
    image = contract(q, cayley_form())
    derivative = exterior_derivative(image)
    if not derivative.is_zero():
        raise NotLocallyCayleyError(derivative)
    return homotopy_primitive(image)


def cayley_2mvf_for(alpha: GradedTensor) -> GradedTensor:
    """The unique two-multivector field Q with Q _| Psi = d(alpha)."""
    _expect(alpha, FORM, 1)
    return psi2_inverse(exterior_derivative(alpha))


def cayley2_constraint(q: GradedTensor) -> GradedTensor:
    """3 d(Q_7) - d(Q_21) for the parts of flat(Q); zero iff Q _| Psi is closed.

    ``d`` is linear, so this is taken as one derivative, ``d(3 Q_7 - Q_21)``.
    """
    parts = project2(flat(q)).components
    return exterior_derivative(parts["2_7"] * 3 - parts["2_21"])


def cayley_3mvf_for(f: Polynomial) -> GradedTensor:
    """The three-multivector field Q = ``psi3_section(df)``, so Q _| Psi = df.

    This is the canonical solution, with vanishing 48-part.  Any other adds
    a three-multivector K with K _| Psi = 0 by ``+``; the ``image`` residual
    of ``identity_report("cayley_fn", Q + K, df)`` is K _| Psi.
    """
    return psi3_section(exterior_derivative(scalar_tensor(f)))


# -- named pointwise identities ----------------------------------------------


_IDENTITY_INPUTS = {
    "seven_star": ((MULTIVECTOR, 1),),
    "seven_norm": ((MULTIVECTOR, 1),),
    "decomposable_minus6": ((MULTIVECTOR, 1), (MULTIVECTOR, 1)),
    "norm_split_minus27": ((MULTIVECTOR, 2),),
    "norm_split_three": ((MULTIVECTOR, 3),),
    "cayley_fn": ((MULTIVECTOR, 3), (FORM, 1)),
}


def identity_report(name: str, *inputs: GradedTensor) -> dict[str, GradedTensor | Polynomial]:
    """Evaluate both sides of a named pointwise identity exactly.

    Returns a dict of residuals (tensors or polynomials), all of which are
    zero when the identity holds.  Available names:

    ``seven_star``            (X _| Psi) ^ Psi = 7 star(flat(X)), X a vector field
    ``seven_norm``            flat(X) ^ (X _| Psi) ^ Psi = 7 |X|^2 vol
    ``decomposable_minus6``   ((u^v) _| Psi)^2 ^ Psi = -6 |flat(u)^flat(v)|^2 vol
    ``norm_split_minus27``    (Q _| Psi)^2 ^ Psi = (-27 |Q_7|^2 + |Q_21|^2) vol
    ``norm_split_three``      7 |Q_8|^2 = |Q|^2 and 7 |Q_48|^2 = 6 |Q|^2,
                              Q a decomposable three-multivector
    ``cayley_fn``             for Q _| Psi = df: the 48-part drops from
                              flat(Q) ^ (Q _| Psi) ^ Psi, and the eight-form
                              equals CAYLEY_FUNCTION_CONSTANT * |df|^2 vol

    The inputs of each identity, as ``(variance, degree)`` in order, are
    ``_IDENTITY_INPUTS[name]``: an unknown name is a ``KeyError``, a wrong
    number of inputs a ``TypeError``, and each input goes through ``_expect``.
    The ``seven_star_identity`` check restates ``seven_star`` through the
    registry's mutable Hodge star; ROADMAP item 8 gives the mutation one
    home, and with it this branch becomes the check's only body.
    """
    try:
        shapes = _IDENTITY_INPUTS[name]
    except KeyError:
        raise KeyError(f"unknown identity {name!r}") from None
    if len(inputs) != len(shapes):
        raise TypeError(f"identity {name!r} takes {len(shapes)} tensors, got {len(inputs)}")
    for t, (variance, degree) in zip(inputs, shapes):
        _expect(t, variance, degree)
    psi = cayley_form()
    volume = vol()
    if name == "seven_star":
        (x,) = inputs
        lhs = wedge(contract(x, psi), psi)
        return {"residual": lhs - hodge(flat(x)) * 7}
    if name == "seven_norm":
        (x,) = inputs
        lhs = wedge(flat(x), wedge(contract(x, psi), psi))
        return {"residual": lhs - volume * (inner(x, x) * 7)}
    if name == "decomposable_minus6":
        u, v = inputs
        q = wedge(u, v)
        image = contract(q, psi)
        lhs = wedge(image, wedge(image, psi))
        area = wedge(flat(u), flat(v))
        return {"residual": lhs + volume * (inner(area, area) * 6)}
    if name == "norm_split_minus27":
        (q,) = inputs
        image = contract(q, psi)
        lhs = wedge(image, wedge(image, psi))
        norms = project2(flat(q)).norms()
        return {"residual": lhs - volume * (norms["2_21"] - norms["2_7"] * 27)}
    if name == "norm_split_three":
        (q,) = inputs
        form = flat(q)
        report = project3(form)
        norms = report.norms()
        total = report._pairing("input", "input")  # read from the memo where the norms took it
        return {"eight_part": norms["3_8"] * 7 - total, "large_part": norms["3_48"] * 7 - total * 6}
    q, df = inputs  # cayley_fn
    image = contract(q, psi)
    form = flat(q)
    image_psi = wedge(image, psi)
    lhs = wedge(form, image_psi)
    eight_only = wedge(_eight_part(form), image_psi)
    scaled = volume * (inner(df, df) * CAYLEY_FUNCTION_CONSTANT)
    return {
        "eight_part_eq": lhs - eight_only,
        "scalar": lhs - scaled,
        "image": image - df,
    }
