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
the term to zero and emits a warning.  Loading is one walk over the terms
and their monomials.  A well-formed index list or monomial is taken as it
is, each exponent list packed on the spot; any other node goes through its
located body (:func:`_located_idx`, :func:`_located_monomial`), which
accepts it or raises a :class:`ParseError` naming the first node at fault.

:func:`json_text` writes every ``--format json`` output of the command line:
``json.dumps(value, indent=2)`` byte for byte, through one recursion that
appends the text of each value to one buffer, joined once at the end, so
no text is copied again per level of nesting.  Its two fast paths write a
:class:`GradedTensor` or :class:`Polynomial` as the text of its document
(:func:`tensor_to_document`, :func:`polynomial_to_document`) straight from
its packed terms (:meth:`Polynomial._packed_quotients`), with no document
built.  One call keeps a table per indent from packed monomial to the text
of its exponents, so each distinct monomial is formatted once per indent
and every repeat is a lookup plus its numerator and denominator digits.
The tables die with the call.
"""

from __future__ import annotations

import functools
import json
import re
import warnings
from collections import defaultdict
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable

from .multiindex import DIM, MASK, canonicalize
from .polynomial import MAX_EXPONENT, Polynomial, _INT, _pack, _summed, _unpack
from .tensor import FORM, MULTIVECTOR, DegreeMismatch, GradedTensor, _grouped_sum

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
    if type(value) is int:
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
    return _polynomial(doc, lambda: location)


def _polynomial(doc: Any, where: Callable[[], str]) -> Polynomial:
    """The polynomial of the coefficient list at ``where()``, called only for a node the guard rejects.

    The guard takes a dict whose ``exp`` is a list of eight plain ints in
    0..MAX_EXPONENT and whose ``num`` and ``den`` are decimal strings,
    ``den`` not 0; any other monomial goes through :func:`_located_monomial`.
    """
    if not isinstance(doc, list):
        _expect_type(doc, list, where())
    match = _DECIMAL.fullmatch
    packed = []
    for n, mono in enumerate(doc):
        try:
            exp, num, den = mono["exp"], mono["num"], mono.get("den", "1")
            if (
                mono.__class__ is dict and exp.__class__ is list
                and match(num) and match(den) and (d := int(den))
            ):
                packed.append((_pack(exp), int(num), d))  # _pack checks the length, entry types and range
                continue
        except (KeyError, TypeError, ValueError):  # ValueError: a bad exponent, or past the digit limit
            pass
        packed.append(_located_monomial(mono, f"{where()}[{n}]"))
    return _summed(packed)


def _located_monomial(mono: Any, here: str) -> tuple[int, int, int]:
    """``(key, num, den)`` of a monomial, or a :class:`ParseError` naming the first node at fault."""
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
    return _pack(exponents), num, den


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
    if type(degree) is not int or not 0 <= degree <= DIM:
        raise ParseError(f"degree must be an integer in 0..{DIM}, got {degree!r}", f"{location}.degree")
    raw_terms = _expect_type(doc.get("terms", []), list, f"{location}.terms")
    groups: defaultdict[int, list] = defaultdict(list)
    for n, term in enumerate(raw_terms):
        idx = term.get("idx") if term.__class__ is dict else None
        if idx.__class__ is list and len(idx) == degree and {*map(type, idx)} <= _INT and all(0 <= i < DIM for i in idx):
            indices = tuple(idx)
        else:
            indices = _located_idx(term, degree, f"{location}.terms[{n}]")
        coeff = _polynomial(term.get("coeff", []), lambda: f"{location}.terms[{n}].coeff")
        key, sign = canonicalize(indices)
        if sign == 0:
            if not coeff.is_zero():
                warnings.warn(
                    f"{location}.terms[{n}]: repeated index {indices} collapses the term to zero",
                    stacklevel=2,
                )
            continue
        groups[MASK[key]].append((sign, coeff))
    return GradedTensor._raw(variance, degree, _grouped_sum(groups, Polynomial.linear_sum))


def _located_idx(term: Any, degree: int, here: str) -> tuple[int, ...]:
    """A term's indices, or a :class:`ParseError` naming the node at fault."""
    _expect_type(term, dict, here)
    idx = _expect_type(term.get("idx"), list, f"{here}.idx")
    indices = tuple(_parse_integer(i, f"{here}.idx[{j}]") for j, i in enumerate(idx))
    if len(indices) != degree:
        raise ParseError(f"idx has length {len(indices)} but degree is {degree}", f"{here}.idx")
    if any(not 0 <= i < DIM for i in indices):
        raise ParseError(f"index outside 0..{DIM - 1}", f"{here}.idx")
    return indices


def _document_degree(t: GradedTensor) -> int:
    if not 0 <= t.degree <= DIM:
        raise DegreeMismatch(f"no document for a tensor of degree {t.degree}: documents hold degrees 0..{DIM}")
    return t.degree


def tensor_to_document(t: GradedTensor) -> dict[str, Any]:
    return {
        "variance": t.variance,
        "degree": _document_degree(t),
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
    """``json.dumps(value, indent=2)``, byte for byte, with tensors and polynomials as their documents.

    One recursion, :func:`_write`, appends the text of each value to one
    buffer, and the buffer is joined once at the end, so no text is copied
    again for each level it is nested in: plain ``str`` and ``int`` go
    through the functions ``json`` itself uses with ``ensure_ascii``,
    non-empty dicts, lists and tuples as their items at the next indent,
    and every other value through ``json.dumps``. A ``GradedTensor`` or
    ``Polynomial`` is written by one of two fast paths,
    :func:`_write_tensor` and :func:`_write_polynomial`, as ``json.dumps``
    would write its document at that depth, straight from the packed
    terms, with no document dict built. Nearly all the bytes of a CLI
    document are monomials, and a document repeats few distinct ones many
    times, so each call keeps one table per indent from packed key to the
    monomial's text up to its numerator's digits: a monomial's exponents
    are formatted once per indent and call, each repeat is a lookup plus
    its ``num`` and ``den`` digits. The tables die with the call. A tensor
    of a degree outside 0..8 raises ``DegreeMismatch``, as
    :func:`tensor_to_document` does. A dict key that is not a ``str``, or
    any other value ``json.dumps`` cannot write, raises ``TypeError``.
    """
    out: list[str] = []
    _write(value, "\n", {}, out)
    return "".join(out)


def _write(value: Any, newline: str, heads: dict[str, dict[int, str]], out: list[str]) -> None:
    """Append the text of ``value`` to ``out``, ``newline`` being "\\n" and the indent of its line; ``heads`` is the call's monomial tables."""
    cls = value.__class__
    if cls is str:
        out.append(_quote(value))
    elif cls is int:
        out.append(int.__repr__(value))
    elif isinstance(value, Polynomial):
        _write_polynomial(value, newline, heads, out)
    elif isinstance(value, GradedTensor):
        _write_tensor(value, newline, heads, out)
    elif isinstance(value, dict) and value:
        inner, sep = newline + "  ", "{"
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out += (sep, inner, _quote(key), ": ")
            _write(item, inner, heads, out)
            sep = ","
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)) and value:
        inner, sep = newline + "  ", "["
        for item in value:
            out += (sep, inner)
            _write(item, inner, heads, out)
            sep = ","
        out.append(newline + "]")
    else:
        out.append(json.dumps(value))


@functools.cache
def _monomial_pieces(newline: str) -> tuple[str, str, str]:
    """One monomial's document at ``newline`` in three pieces around its num and den digits.

    The head runs up to the numerator's digits, with ``%d`` for the 8
    exponents; then the text between num and den, then the tail.
    """
    key, entry = newline + "  ", newline + "    "
    exp = "[" + entry + ("," + entry).join(["%d"] * DIM) + key + "]"
    return "{" + key + '"exp": ' + exp + "," + key + '"num": "', '",' + key + '"den": "', '"' + newline + "}"


def _write_polynomial(poly: Polynomial, newline: str, heads: dict[str, dict[int, str]], out: list[str]) -> None:
    """Append ``polynomial_to_document(poly)`` as ``json.dumps(indent=2)`` writes it at ``newline``."""
    if poly.is_zero():
        out.append("[]")
        return
    inner = newline + "  "
    head, between, tail = _monomial_pieces(inner)
    table = heads.setdefault(inner, {})
    sep, comma = "[" + inner, "," + inner
    for key, n, d in poly._packed_quotients():
        text = table.get(key)
        if text is None:
            text = table[key] = head % _unpack(key)
        out.append(f"{sep}{text}{n}{between}{d}{tail}")
        sep = comma
    out.append(newline + "]")


def _write_tensor(t: GradedTensor, newline: str, heads: dict[str, dict[int, str]], out: list[str]) -> None:
    """Append ``tensor_to_document(t)`` as ``json.dumps(indent=2)`` writes it at ``newline``."""
    degree = _document_degree(t)
    key, term, term_key, entry = (newline + "  " * n for n in range(1, 5))
    out.append("{" + key + '"variance": ' + _quote(t.variance) + "," + key + f'"degree": {degree},' + key + '"terms": ')
    if not t.terms:
        out.append("[]" + newline + "}")
        return
    sep = "[" + term
    for idx, poly in t.sorted_terms():
        indices = "[" + entry + ("," + entry).join(map(str, idx)) + term_key + "]" if idx else "[]"
        out.append(sep + "{" + term_key + '"idx": ' + indices + "," + term_key + '"coeff": ')
        _write_polynomial(poly, term_key, heads, out)
        out.append(term + "}")
        sep = "," + term
    out.append(key + "]" + newline + "}")
