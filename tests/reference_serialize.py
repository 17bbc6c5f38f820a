"""Reference document loader for the differential tests of ``cayley8.serialize``.

``document_to_tensor`` and ``document_to_polynomial`` are the located parse
that every document went through before the loader became one guarded walk:
each node is checked in order and the first one at fault is named in the
:class:`ParseError`.  ``packed_monomials`` is the one-pass guard that ran in
front of it for a whole coefficient list, ``None`` for any list it did not
take; the loader's guard must take exactly the monomials it took.
"""

from __future__ import annotations

import warnings
from typing import Any

from reference_multiindex import canonicalize
from reference_tensor import _accumulate

from cayley8.multiindex import DIM, MultiIndex
from cayley8.polynomial import MAX_EXPONENT, Polynomial, _pack
from cayley8.serialize import _DECIMAL, ParseError, _expect_type, _parse_integer
from cayley8.tensor import FORM, MULTIVECTOR, GradedTensor


def packed_monomials(doc: Any) -> list[tuple[int, int, int]] | None:
    """``(key, num, den)`` per monomial of a well-formed coefficient list, else None."""
    if doc.__class__ is not list:
        return None
    packed = []
    match = _DECIMAL.fullmatch
    try:
        for mono in doc:
            if mono.__class__ is not dict:
                return None
            exp, num, den = mono["exp"], mono["num"], mono.get("den", "1")
            if exp.__class__ is not list or {*map(type, exp)} != {int} or not (match(num) and match(den)):
                return None
            packed.append((_pack(exp), int(num), int(den)))  # _pack checks the length and range
    except (KeyError, TypeError, ValueError):  # ValueError: a bad exponent, or past the digit limit
        return None
    return packed if all(den for _, _, den in packed) else None


def document_to_polynomial(doc: Any, location: str = "$") -> Polynomial:
    _expect_type(doc, list, location)
    quotients: list[tuple[tuple[int, ...], int, int]] = []
    for n, mono in enumerate(doc):
        here = f"{location}[{n}]"
        _expect_type(mono, dict, here)
        exp = _expect_type(mono.get("exp"), list, f"{here}.exp")
        if len(exp) != DIM:
            raise ParseError(f"exponent tuple needs {DIM} entries, got {len(exp)}", f"{here}.exp")
        exponents = tuple(_parse_integer(e, f"{here}.exp[{i}]") for i, e in enumerate(exp))
        if any(e < 0 for e in exponents):
            raise ParseError("negative exponent", f"{here}.exp")
        for i, e in enumerate(exponents):
            if e > MAX_EXPONENT:
                raise ParseError(f"exponent {e} above MAX_EXPONENT = {MAX_EXPONENT}", f"{here}.exp[{i}]")
        num = _parse_integer(mono.get("num"), f"{here}.num")
        den = _parse_integer(mono.get("den", "1"), f"{here}.den")
        if den == 0:
            raise ParseError("zero denominator", f"{here}.den")
        quotients.append((exponents, num, den))
    return Polynomial.from_quotients(quotients)


def _located_term(term: Any, degree: int, here: str) -> tuple[tuple[int, ...], Polynomial]:
    _expect_type(term, dict, here)
    idx = _expect_type(term.get("idx"), list, f"{here}.idx")
    indices = tuple(_parse_integer(i, f"{here}.idx[{j}]") for j, i in enumerate(idx))
    if len(indices) != degree:
        raise ParseError(f"idx has length {len(indices)} but degree is {degree}", f"{here}.idx")
    if any(not 0 <= i < DIM for i in indices):
        raise ParseError(f"index outside 0..{DIM - 1}", f"{here}.idx")
    return indices, document_to_polynomial(term.get("coeff", []), f"{here}.coeff")


def document_to_tensor(doc: Any, location: str = "$") -> GradedTensor:
    _expect_type(doc, dict, location)
    variance = doc.get("variance")
    if variance not in (FORM, MULTIVECTOR):
        raise ParseError(
            f"variance must be {FORM!r} or {MULTIVECTOR!r}, got {variance!r}",
            f"{location}.variance",
        )
    degree = doc.get("degree")
    if not isinstance(degree, int) or isinstance(degree, bool) or not 0 <= degree <= DIM:
        raise ParseError(f"degree must be an integer in 0..{DIM}, got {degree!r}", f"{location}.degree")
    raw_terms = _expect_type(doc.get("terms", []), list, f"{location}.terms")
    terms: dict[MultiIndex, Polynomial] = {}
    for n, term in enumerate(raw_terms):
        indices, coeff = _located_term(term, degree, f"{location}.terms[{n}]")
        key, sign = canonicalize(indices)
        if sign == 0:
            if not coeff.is_zero():
                warnings.warn(f"{location}.terms[{n}]: repeated index {indices} collapses the term to zero", stacklevel=2)
            continue
        _accumulate(terms, key, sign, coeff)
    return GradedTensor._raw(variance, degree, terms)
