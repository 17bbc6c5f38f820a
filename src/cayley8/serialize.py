"""Lossless JSON interchange for tensors.

The document layout keeps integers as decimal strings so arbitrary
precision survives any JSON implementation::

    {
      "variance": "form" | "multivector",
      "degree": 2,
      "terms": [
        {"idx": [0, 1],
         "coeff": [{"exp": [0,0,0,0,0,0,0,0], "num": "3", "den": "2"}]}
      ]
    }

Index lists may arrive unsorted; they canonicalize on load with the
permutation sign absorbed into the coefficient.  A repeated index collapses
the term to zero and emits a warning.
"""

from __future__ import annotations

import json
import warnings
from fractions import Fraction
from typing import Any

from .multiindex import DIM, canonicalize
from .polynomial import Polynomial
from .tensor import FORM, MULTIVECTOR, GradedTensor, _accumulate


class ParseError(ValueError):
    """Malformed tensor document; ``location`` points at the offending node."""

    def __init__(self, message: str, location: str = "$"):
        self.location = location
        super().__init__(f"{location}: {message}")


def _expect_type(value: Any, kind: type, location: str) -> Any:
    if not isinstance(value, kind):
        raise ParseError(f"expected {kind.__name__}, got {type(value).__name__}", location)
    return value


def _parse_integer(value: Any, location: str) -> int:
    if isinstance(value, bool):
        raise ParseError("expected an integer string", location)
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise ParseError(f"not a decimal integer: {value!r}", location) from None
    raise ParseError(f"expected an integer string, got {type(value).__name__}", location)


def document_to_polynomial(doc: Any, location: str = "$") -> Polynomial:
    _expect_type(doc, list, location)
    terms: dict[tuple[int, ...], Fraction] = {}
    for n, mono in enumerate(doc):
        here = f"{location}[{n}]"
        _expect_type(mono, dict, here)
        exp = _expect_type(mono.get("exp"), list, f"{here}.exp")
        if len(exp) != DIM:
            raise ParseError(f"exponent tuple needs {DIM} entries, got {len(exp)}", f"{here}.exp")
        exponents = tuple(_parse_integer(e, f"{here}.exp[{i}]") for i, e in enumerate(exp))
        if any(e < 0 for e in exponents):
            raise ParseError("negative exponent", f"{here}.exp")
        num = _parse_integer(mono.get("num"), f"{here}.num")
        den = _parse_integer(mono.get("den", "1"), f"{here}.den")
        if den == 0:
            raise ParseError("zero denominator", f"{here}.den")
        terms[exponents] = terms.get(exponents, Fraction(0)) + Fraction(num, den)
    return Polynomial(terms)


def polynomial_to_document(poly: Polynomial) -> list[dict[str, Any]]:
    return [
        {
            "exp": list(exp),
            "num": str(poly.terms[exp].numerator),
            "den": str(poly.terms[exp].denominator),
        }
        for exp in sorted(poly.terms)
    ]


def document_to_tensor(doc: Any, location: str = "$") -> GradedTensor:
    _expect_type(doc, dict, location)
    variance = doc.get("variance")
    if variance not in (FORM, MULTIVECTOR):
        raise ParseError(
            f"variance must be {FORM!r} or {MULTIVECTOR!r}, got {variance!r}",
            f"{location}.variance",
        )
    degree = doc.get("degree")
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 0:
        raise ParseError(f"degree must be a non-negative integer, got {degree!r}", f"{location}.degree")
    raw_terms = _expect_type(doc.get("terms", []), list, f"{location}.terms")
    accumulated: dict[tuple[int, ...], Polynomial] = {}
    for n, term in enumerate(raw_terms):
        here = f"{location}.terms[{n}]"
        _expect_type(term, dict, here)
        idx = _expect_type(term.get("idx"), list, f"{here}.idx")
        indices = tuple(_parse_integer(i, f"{here}.idx[{j}]") for j, i in enumerate(idx))
        if len(indices) != degree:
            raise ParseError(
                f"idx has length {len(indices)} but degree is {degree}", f"{here}.idx"
            )
        if any(not 0 <= i < DIM for i in indices):
            raise ParseError(f"index outside 0..{DIM - 1}", f"{here}.idx")
        coeff = document_to_polynomial(term.get("coeff", []), f"{here}.coeff")
        key, sign = canonicalize(indices)
        if sign == 0:
            if not coeff.is_zero():
                warnings.warn(
                    f"{here}: repeated index {indices} collapses the term to zero",
                    stacklevel=2,
                )
            continue
        _accumulate(accumulated, key, sign, coeff)
    return GradedTensor._raw(variance, degree, accumulated)


def tensor_to_document(t: GradedTensor) -> dict[str, Any]:
    return {
        "variance": t.variance,
        "degree": t.degree,
        "terms": [
            {"idx": list(idx), "coeff": polynomial_to_document(poly)}
            for idx, poly in t.sorted_terms()
        ],
    }


def parse_tensor(text: str) -> GradedTensor:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", "$") from None
    return document_to_tensor(doc)


def serialize_tensor(t: GradedTensor, *, indent: int | None = None) -> str:
    return json.dumps(tensor_to_document(t), indent=indent)
