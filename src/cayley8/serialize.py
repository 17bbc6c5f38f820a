"""Lossless JSON interchange for tensors, and the one indented JSON writer.

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

:func:`json_text` writes every ``--format json`` output of the command line:
``json.dumps(value, indent=2)`` byte for byte, in one pass over the value.
"""

from __future__ import annotations

import json
import re
import warnings
from collections import defaultdict
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable

from .multiindex import DIM, MASK, canonicalize
from .polynomial import MAX_EXPONENT, Polynomial
from .tensor import FORM, MULTIVECTOR, ONE, DegreeMismatch, GradedTensor, _grouped_sum

_DECIMAL = re.compile(r"-?[0-9]+")


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
        if not _DECIMAL.fullmatch(value):
            raise ParseError(f"not a decimal integer: {value!r}", location)
        try:
            return int(value)
        except ValueError:  # more digits than sys.get_int_max_str_digits() allows
            raise ParseError(f"{len(value)}-digit integer above the interpreter's digit limit", location) from None
    raise ParseError(f"expected an integer string, got {type(value).__name__}", location)


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


def polynomial_to_document(poly: Polynomial) -> list[dict[str, Any]]:
    return [
        {"exp": list(exp), "num": str(num), "den": str(den)}
        for exp, num, den in poly.quotients()
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
    if not isinstance(degree, int) or isinstance(degree, bool) or not 0 <= degree <= DIM:
        raise ParseError(f"degree must be an integer in 0..{DIM}, got {degree!r}", f"{location}.degree")
    raw_terms = _expect_type(doc.get("terms", []), list, f"{location}.terms")
    groups: defaultdict[int, list] = defaultdict(list)
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
        groups[MASK[key]].append((sign, coeff, ONE))
    return GradedTensor._raw(variance, degree, _grouped_sum(groups))


def tensor_to_document(t: GradedTensor) -> dict[str, Any]:
    if not 0 <= t.degree <= DIM:
        raise DegreeMismatch(f"no document for a tensor of degree {t.degree}: documents hold degrees 0..{DIM}")
    return {
        "variance": t.variance,
        "degree": t.degree,
        "terms": [
            {"idx": list(idx), "coeff": polynomial_to_document(poly)}
            for idx, poly in t.sorted_terms()
        ],
    }


def decode_json(text: str, source: str = "the document") -> Any:
    """``json.loads`` with every decoding failure raised as :class:`ParseError`."""
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or a number literal above the digit limit
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError(f"invalid JSON: {source} is nested too deeply") from None


def parse_tensor(text: str) -> GradedTensor:
    return document_to_tensor(decode_json(text))


def serialize_tensor(t: GradedTensor) -> str:
    return json.dumps(tensor_to_document(t))


def json_text(value: Any) -> str:
    """``json.dumps(value, indent=2)``, byte for byte.

    With an indent, ``json.dumps`` runs the pure-Python encoder, a chain of
    generators yielding one chunk per token. This writer appends one chunk
    per line to a list and joins it once. Plain ``str`` and ``int`` members
    of a container are written inline, through the function ``json`` uses
    with ``ensure_ascii`` and ``int.__repr__``; every other scalar goes
    through ``json.dumps`` itself. A dict key that is not a ``str``, or a
    value that is not a dict, list, tuple, str, int, float, bool or None,
    raises ``TypeError``.
    """
    chunks: list[str] = []
    _write(value, chunks.append, "\n")
    return "".join(chunks)


def _write(value: Any, put: Callable[[str], None], newline: str) -> None:
    """Append the text of ``value`` with ``put``, ``newline`` being "\\n" and the line's indent.

    Plain ``str`` and ``int`` members are written in the container loops; any
    other member goes through the recursion, which hands scalars to ``json.dumps``.
    """
    if isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            cls = item.__class__
            if cls is str:
                put(sep + _quote(key) + ": " + _quote(item))
            elif cls is int:
                put(sep + _quote(key) + ": " + int.__repr__(item))
            else:
                put(sep + _quote(key) + ": ")
                _write(item, put, inner)
            sep = "," + inner
        put(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            cls = item.__class__
            if cls is int:
                put(sep + int.__repr__(item))
            elif cls is str:
                put(sep + _quote(item))
            else:
                put(sep)
                _write(item, put, inner)
            sep = "," + inner
        put(newline + "]")
    else:
        put(json.dumps(value))
