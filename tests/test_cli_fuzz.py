"""Every document command, fed near-valid documents, ends in indented JSON or one located error.

Each run goes through ``cli.main`` with ``--format json``.  Exit 0 must print
``json.dumps(json.loads(out), indent=2)`` and a newline, and the payload
must be written exactly as ``json.dumps(indent=2)`` writes it with each
tensor and polynomial in it replaced by its plain document.  Exit 2 must
print one ``error: $...: message`` line naming a node of the input, and
nothing on stdout.  On every input document the loader must agree with
the located parse of ``reference_serialize.py``.
"""

import contextlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from documents import as_documents, json_values, load_outcome, located_outcome, near_valid_documents

from cayley8 import cli
from cayley8.serialize import json_text

LOCATED_ERROR = re.compile(r"error: \$[^\s:]*: [^\n]+\n")


def documents(degrees, variances=st.just("form")):
    """Near-valid documents of any degree for half the draws, valid ones of ``degrees`` for the other.

    A document has up to about forty fields, so with a bad field one time in
    ten most draws fail to load; the valid half reaches the writer.
    """
    return st.one_of(near_valid_documents(st.integers(0, 8), variances), near_valid_documents(degrees, variances, None))


@st.composite
def contract_pairs(draw):
    """A ``{"multivector": ..., "form": ...}`` pair, or one time in ten any JSON value."""
    if not draw(st.integers(0, 9)):
        return draw(json_values)
    return {"multivector": draw(documents(st.integers(0, 3), st.just("multivector"))), "form": draw(documents(st.integers(3, 5)))}


COMMANDS = {
    "decompose": (["decompose"], documents(st.integers(2, 4), st.sampled_from(["form", "multivector"]))),
    "contract": (["contract"], contract_pairs()),
    "solve-cayley2": (["solve", "cayley2"], documents(st.just(1))),
    "solve-cayley3": (["solve", "cayley3"], documents(st.just(0))),
    "primitive": (["primitive"], documents(st.integers(1, 8))),
}


def checked_json_text(payload) -> str:
    text = json_text(payload)
    assert text == json.dumps(as_documents(payload), indent=2)
    return text


def run(argv: list[str], doc) -> tuple[int, str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a repeated index warns, by design
            with mock.patch.object(cli, "json_text", checked_json_text):
                code = cli.main(argv + ["--input", str(path), "--format", "json"])
    return code, out.getvalue(), err.getvalue()


def input_documents(doc) -> list[tuple[object, str]]:
    """Each tensor document of a command's input, with its location."""
    if isinstance(doc, dict) and "multivector" in doc and "form" in doc:
        return [(doc["multivector"], "$.multivector"), (doc["form"], "$.form")]
    return [(doc, "$")]


@pytest.mark.parametrize("name", sorted(COMMANDS))
@settings(max_examples=50, deadline=None)
@given(st.data())
def test_document_commands_end_in_json_or_one_located_error(name, data):
    argv, documents = COMMANDS[name]
    doc = data.draw(documents)
    code, out, err = run(argv, doc)
    event(f"exit {code}")
    if code == 0:
        assert err == ""
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
    else:
        assert code == 2 and out == ""
        assert LOCATED_ERROR.fullmatch(err), err
    for part, location in input_documents(doc):
        assert load_outcome(part, location) == located_outcome(part, location)


@pytest.mark.parametrize("argv", [["decompose"], ["solve", "cayley3"], ["primitive"]])
def test_integers_past_the_digit_limit_are_written_as_their_documents(argv):
    # 5,000-digit coefficients, past CPython's default int/str limit of 4,300 (lifted inside cli.main)
    num, den = "7" * 5000, "3" + "1" * 4999
    degree = 0 if argv[-1] == "cayley3" else 2
    coeff = [{"exp": [1, 0, 2, 0, 0, 0, 0, 1], "num": "-" + num, "den": den}, {"exp": [0] * 8, "num": num, "den": "1"}]
    doc = {"variance": "form", "degree": degree, "terms": [{"idx": [3, 1][:degree], "coeff": coeff}]}
    code, out, err = run(argv, doc)
    assert (code, err) == (0, "")
    assert max(map(len, re.findall(r'"-?[0-9]+"', out))) > 4300
