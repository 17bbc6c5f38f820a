"""Tensor documents for the tests: Hypothesis strategies and the two references.

``near_valid_documents`` draws the document's own shape with each field
invalid about one time in ``odds`` (ten by default).  ``as_documents`` turns
every ``GradedTensor`` and ``Polynomial`` inside a value into its plain
document, the reference for ``json_text``; ``located_outcome`` loads a
document through the located parse of ``reference_serialize.py``, the
reference for the loader's guarded walk.
"""

import warnings

from hypothesis import strategies as st

import reference_serialize

from cayley8.polynomial import Polynomial
from cayley8.serialize import ParseError, document_to_tensor, polynomial_to_document, tensor_to_document
from cayley8.tensor import GradedTensor

# JSON values from dict, list, str, int, bool and None, with the document's own
# keys and words mixed in so that some draws get deep into the parser.
json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**30), 10**30),
    st.integers(-2, 9),
    st.text(max_size=8),
    st.sampled_from(["form", "multivector", "0", "1", "-3", "8", "32768", "1_0", " 2"]),
)
json_keys = st.one_of(st.sampled_from(["variance", "degree", "terms", "idx", "coeff", "exp", "num", "den"]), st.text(max_size=4))
json_values = st.recursive(
    json_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=9), st.dictionaries(json_keys, inner, max_size=5)),
    max_leaves=40,
)


@st.composite
def near_valid_documents(draw, degrees=st.integers(0, 8), variances=st.sampled_from(["form", "multivector"]), odds=10):
    """The document's own shape; each field is valid except about one time in ``odds``, or always if None."""

    def field(valid):
        return draw(valid if odds is None or draw(st.integers(0, odds - 1)) else json_values)

    def monomial():
        decimal = st.integers(-99, 99).map(str)
        exp = st.lists(st.integers(0, 3), min_size=8, max_size=8)
        return {"exp": field(exp), "num": field(decimal), "den": field(decimal.filter(lambda d: d != "0"))}

    degree = draw(degrees)
    terms = [
        {
            "idx": field(st.lists(st.integers(0, 7), min_size=degree, max_size=degree)),
            "coeff": [monomial() for _ in range(draw(st.integers(0, 3)))],
        }
        for _ in range(draw(st.integers(0, 4)))
    ]
    return {
        "variance": field(variances),
        "degree": field(st.just(degree)),
        "terms": terms,
    }


def as_documents(value):
    """``value`` with each tensor and polynomial in it replaced by its document."""
    if isinstance(value, GradedTensor):
        return tensor_to_document(value)
    if isinstance(value, Polynomial):
        return polynomial_to_document(value)
    if isinstance(value, dict):
        return {key: as_documents(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [as_documents(item) for item in value]
    return value


def load_outcome(doc, location="$", load=document_to_tensor):
    """What ``load`` gives: the tensor's fields or the error, and the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            t = load(doc, location)
            result = (t.variance, t.degree, t.terms)
        except ParseError as exc:
            result = ("ParseError", str(exc))
    return result, [str(w.message) for w in caught]


def located_outcome(doc, location="$"):
    """:func:`load_outcome` of the reference loader, which takes every node the located way."""
    return load_outcome(doc, location, reference_serialize.document_to_tensor)
