import enum
import json
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from documents import json_values, near_valid_documents

from cayley8.calculus import codifferential, exterior_derivative
from cayley8.polynomial import Polynomial
from cayley8.serialize import (
    ParseError,
    document_to_tensor,
    json_text,
    parse_tensor,
    serialize_tensor,
    tensor_to_document,
)
from cayley8.tensor import FORM, MULTIVECTOR, DegreeMismatch, GradedTensor, dx, mv, unit, vol


class Small(enum.IntEnum):
    """An int subclass: no document degree or index, as no tensor degree or index."""

    ZERO = 0
    TWO = 2


def doc(variance="form", degree=2, terms=None):
    return {"variance": variance, "degree": degree, "terms": terms or []}


def coeff_one():
    return [{"exp": [0] * 8, "num": "1", "den": "1"}]


class TestRoundTrip:
    def test_simple_form(self):
        t = dx(0, 1)
        assert parse_tensor(serialize_tensor(t)) == t

    def test_low_degrees_round_trip_as_integers(self):
        for t in (dx(0), GradedTensor(MULTIVECTOR, 0, {(): 2}), GradedTensor.zero(FORM, 0), GradedTensor.zero(FORM, 1)):
            text = serialize_tensor(t)
            assert type(json.loads(text)["degree"]) is int
            back = parse_tensor(text)
            assert back == t and back.degree == t.degree
        # a bool degree, which the loader refuses, never gets into a tensor to be written
        with pytest.raises(ParseError, match="degree must be an integer"):
            parse_tensor(json.dumps(doc(degree=True)))
        with pytest.raises(DegreeMismatch, match="degree must be an integer"):
            GradedTensor(FORM, True, {(0,): 1})

    def test_corpus(self, make_tensor):
        for variance in (FORM, MULTIVECTOR):
            for degree in (0, 1, 3, 8):
                t = make_tensor(variance, degree, max_poly_degree=3)
                assert parse_tensor(serialize_tensor(t)) == t

    def test_serialization_is_canonical(self):
        # same tensor assembled in different term orders serializes identically
        a = dx(0, 1) + dx(2, 3) * Fraction(5, 3)
        b = dx(2, 3) * Fraction(5, 3) + dx(0, 1)
        assert serialize_tensor(a) == serialize_tensor(b)

    def test_reserialize_normalizes(self):
        text = json.dumps(
            doc(
                terms=[
                    {"idx": [1, 0], "coeff": coeff_one()},
                    {"idx": [0, 1], "coeff": coeff_one()},
                ]
            )
        )
        # -dx01 + dx01 = 0
        assert parse_tensor(text).is_zero()

    @pytest.mark.parametrize(
        ("tensor", "degree"),
        [(lambda: exterior_derivative(vol()), 9), (lambda: codifferential(unit()), -1)],
        ids=["d-vol", "delta-unit"],
    )
    def test_zero_tensor_outside_0_8_has_no_document(self, tensor, degree):
        # the loader rejects such degrees, so the writer refuses them too
        t = tensor()
        assert t.is_zero() and t.degree == degree
        with pytest.raises(DegreeMismatch, match=rf"degree {degree}\b"):
            tensor_to_document(t)
        with pytest.raises(DegreeMismatch, match=rf"degree {degree}\b"):
            serialize_tensor(t)
        with pytest.raises(DegreeMismatch, match=rf"degree {degree}\b"):
            json_text({"result": t})

    def test_big_integers_survive(self):
        huge = 10**40 + 7
        t = dx(5, coeff=Fraction(huge, 3))
        again = parse_tensor(serialize_tensor(t))
        assert again.coefficient((5,)) == Polynomial.constant(Fraction(huge, 3))


class TestCanonicalization:
    def test_unsorted_idx_absorbs_sign(self):
        text = json.dumps(doc(terms=[{"idx": [1, 0], "coeff": coeff_one()}]))
        assert parse_tensor(text) == dx(0, 1) * -1

    def test_repeated_index_warns_and_collapses(self):
        text = json.dumps(doc(terms=[{"idx": [1, 1], "coeff": coeff_one()}]))
        with pytest.warns(UserWarning, match="repeated index"):
            assert parse_tensor(text).is_zero()

    def test_repeated_index_with_zero_coefficient_is_silent(self):
        text = json.dumps(doc(terms=[{"idx": [1, 1], "coeff": []}]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parse_tensor(text).is_zero()


class TestErrors:
    def test_invalid_json(self):
        with pytest.raises(ParseError):
            parse_tensor("{not json")
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_tensor("[" * 100_000)

    def test_bad_variance(self):
        with pytest.raises(ParseError, match=r"\$\.variance"):
            document_to_tensor(doc(variance="covector"))

    def test_bad_degree(self):
        with pytest.raises(ParseError, match=r"\$\.degree"):
            document_to_tensor(doc(degree="two"))

    @pytest.mark.parametrize("degree", [-1, 9, 12, Small.TWO])
    def test_degree_outside_the_exterior_algebra(self, degree):
        # an empty term list would otherwise load as a zero tensor of that degree
        with pytest.raises(ParseError, match=r"^\$\.degree: .*0\.\.8"):
            document_to_tensor(doc(degree=degree, terms=[]))

    def test_idx_length_mismatch_reports_location(self):
        with pytest.raises(ParseError, match=r"terms\[0\]\.idx"):
            document_to_tensor(doc(terms=[{"idx": [0], "coeff": coeff_one()}]))

    def test_index_out_of_range(self):
        with pytest.raises(ParseError, match=r"terms\[0\]\.idx"):
            document_to_tensor(doc(terms=[{"idx": [0, 9], "coeff": coeff_one()}]))
        with pytest.raises(ParseError, match=r"^\$\.terms\[0\]\.idx\[0\]: "):
            document_to_tensor(doc(terms=[{"idx": [Small.ZERO, 1], "coeff": coeff_one()}]))

    @pytest.mark.parametrize("num", ["x", "1_0", " 7 ", "\u0663"])
    def test_bad_numerator(self, num):
        bad = doc(terms=[{"idx": [0, 1], "coeff": [{"exp": [0] * 8, "num": num, "den": "1"}]}])
        with pytest.raises(ParseError, match="num"):
            document_to_tensor(bad)

    def test_zero_denominator(self):
        bad = doc(terms=[{"idx": [0, 1], "coeff": [{"exp": [0] * 8, "num": "1", "den": "0"}]}])
        with pytest.raises(ParseError, match="den"):
            document_to_tensor(bad)

    def test_wrong_exponent_arity(self):
        bad = doc(terms=[{"idx": [0, 1], "coeff": [{"exp": [0] * 3, "num": "1", "den": "1"}]}])
        with pytest.raises(ParseError, match="exp"):
            document_to_tensor(bad)


def test_document_shape():
    t = mv(2, 0, coeff=Fraction(-3, 2))  # canonicalizes to +3/2 on (0, 2)
    document = tensor_to_document(t)
    assert document == {
        "variance": "multivector",
        "degree": 2,
        "terms": [
            {"idx": [0, 2], "coeff": [{"exp": [0] * 8, "num": "3", "den": "2"}]}
        ],
    }


@settings(max_examples=200, deadline=None)
@given(st.one_of(json_values, near_valid_documents()))
def test_parse_tensor_returns_a_tensor_or_raises_parse_error(value):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a repeated index warns, by design
        try:
            result = parse_tensor(json.dumps(value))
        except ParseError:
            return
    assert isinstance(result, GradedTensor)


# -- json_text: json.dumps(value, indent=2), byte for byte ---------------------------

# every code point, lone surrogates included, plus the characters JSON escapes
writer_strings = st.one_of(
    st.text(st.characters(blacklist_categories=())),
    st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\ud800\udfff\U0001f600')),
)
writer_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**300), 10**300),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e300, -1e-300, 5e-324]),
    writer_strings,
    st.sampled_from([[], {}, ()]),
)
writer_values = st.recursive(
    writer_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.dictionaries(writer_strings, inner, max_size=6),
    ),
    max_leaves=60,
)


class TestJsonText:
    @settings(max_examples=300, deadline=None)
    @given(writer_values)
    def test_matches_json_dumps_indent_2(self, value):
        assert json_text(value) == json.dumps(value, indent=2)

    def test_bool_is_not_an_int_and_int_subclasses_print_their_value(self):
        class Colour(enum.IntEnum):
            RED = 3

        value = {"flags": [True, False], "colour": Colour.RED, "list": [Colour.RED, True]}
        assert json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [{1: "a"}, [{"ok": {None: 0}}], {(0, 1): 2}, {True: 1}])
    def test_non_str_key_raises_type_error(self, value):
        with pytest.raises(TypeError, match="keys must be str"):
            json_text(value)

    @pytest.mark.parametrize("value", [Fraction(1, 2), {1, 2}, [Fraction(3)], {"a": {"b": {0}}}, b"bytes"])
    def test_non_json_value_raises_type_error(self, value):
        with pytest.raises(TypeError, match="not JSON serializable"):
            json_text(value)

