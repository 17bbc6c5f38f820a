import argparse
import json
import os
import re
import subprocess
import sys
import warnings
from decimal import Decimal
from pathlib import Path

import pytest

import cayley8
from cayley8 import calculus, cli, spin7
from cayley8.cli import build_parser, main
from cayley8.linalg import ExactMatrix
from cayley8.serialize import ParseError, parse_tensor, tensor_to_document
from cayley8.tensor import dx, mv, scalar_tensor
from cayley8.verify import SCOPES
from cayley8.polynomial import MAX_EXPONENT, x


def write_doc(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def one_form_file(tmp_path):
    return write_doc(tmp_path / "alpha.json", tensor_to_document(dx(0, coeff=x(1))))


@pytest.fixture
def function_file(tmp_path):
    return write_doc(tmp_path / "f.json", tensor_to_document(scalar_tensor(x(3))))


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


class TestDecompose:
    def test_two_form_json(self, tmp_path, capsys):
        path = write_doc(tmp_path / "b.json", tensor_to_document(dx(0, 1)))
        code, captured = run(capsys, "decompose", "--input", path, "--format", "json")
        assert code == 0
        payload = json.loads(captured.out)
        assert set(payload["components"]) == {"2_7", "2_21"}
        assert payload["residuals"]["sum"] == "0"

    def test_multivector_flattened(self, tmp_path, capsys):
        path = write_doc(tmp_path / "q.json", tensor_to_document(mv(0, 1)))
        code, captured = run(capsys, "decompose", "--input", path, "--format", "json")
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["flattened_from_multivector"] is True
        assert sorted(payload["components"]) == ["2_21", "2_7"]

    def test_unsupported_degree_is_usage_error(self, tmp_path, capsys):
        path = write_doc(tmp_path / "b.json", tensor_to_document(dx(0)))
        code, captured = run(capsys, "decompose", "--input", path)
        assert code == 2
        assert captured.err == "error: $.degree: decompose expects degree 2, 3 or 4, got 1\n"


class TestContract:
    def test_coordinate_example(self, tmp_path, capsys):
        from cayley8.spin7 import cayley_form

        payload = {
            "multivector": tensor_to_document(mv(0, 1, 2)),
            "form": tensor_to_document(cayley_form()),
        }
        path = write_doc(tmp_path / "pair.json", payload)
        code, captured = run(capsys, "contract", "--input", path, "--format", "json")
        assert code == 0
        result = json.loads(captured.out)["result"]
        assert result["degree"] == 1
        assert result["terms"] == [
            {"idx": [3], "coeff": [{"exp": [0] * 8, "num": "1", "den": "1"}]}
        ]

    def test_missing_key_is_parse_error(self, tmp_path, capsys):
        path = write_doc(tmp_path / "bad.json", {"form": tensor_to_document(dx(0))})
        code, captured = run(capsys, "contract", "--input", path)
        assert code == 2

    @pytest.mark.parametrize(
        "multivector, form, error",
        [
            (dx(0), dx(1), "$.multivector.variance: expected a multivector document, got a form"),
            (mv(0), mv(1), "$.form.variance: expected a form document, got a multivector"),
            (mv(0, 1), dx(2), "$.multivector.degree: cannot contract a degree-2 multivector into a degree-1 form"),
        ],
    )
    def test_mismatched_pair_is_a_located_error(self, tmp_path, capsys, multivector, form, error):
        payload = {"multivector": tensor_to_document(multivector), "form": tensor_to_document(form)}
        code, captured = run(capsys, "contract", "--input", write_doc(tmp_path / "pair.json", payload))
        assert (code, captured.err, captured.out) == (2, f"error: {error}\n", "")


class TestSolve:
    def test_cayley2(self, one_form_file, capsys):
        code, captured = run(
            capsys, "solve", "cayley2", "--input", one_form_file, "--format", "json"
        )
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["residuals"]["contraction"] == "0"
        assert payload["residuals"]["derivative_constraint"] == "0"

    def test_cayley3(self, function_file, capsys):
        code, captured = run(
            capsys, "solve", "cayley3", "--input", function_file, "--format", "json"
        )
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["residuals"]["contraction"] == "0"
        assert payload["target"]["terms"][0]["idx"] == [3]

    @pytest.mark.parametrize(
        "kind, tensor",
        [("cayley2", dx(0, coeff=x(1) * x(2)) + dx(5, coeff=x(0) ** 2)), ("cayley3", scalar_tensor(x(3) * x(4) ** 2))],
    )
    def test_input_is_differentiated_once(self, tmp_path, capsys, monkeypatch, kind, tensor):
        # d(input) is the target, and Q is solved from that one derivative
        path = write_doc(tmp_path / "t.json", tensor_to_document(tensor))
        argv = ("solve", kind, "--input", path, "--format", "json")
        expected = run(capsys, *argv)
        inputs = []
        original = calculus.exterior_derivative

        def counted(form):
            inputs.append(form == tensor)
            return original(form)

        for module in (cli, spin7):
            monkeypatch.setattr(module, "exterior_derivative", counted)
        assert run(capsys, *argv) == expected
        assert inputs.count(True) == 1

    def test_wrong_shape_rejected(self, tmp_path, capsys):
        path = write_doc(tmp_path / "two.json", tensor_to_document(dx(0, 1)))
        code, _ = run(capsys, "solve", "cayley2", "--input", path)
        assert code == 2

    @pytest.mark.parametrize(
        "kind, tensor, error",
        [
            ("cayley2", dx(0, 1), "$.degree: cayley2 expects a one-form document"),
            ("cayley2", mv(0), "$.variance: cayley2 expects a one-form document"),
            ("cayley3", dx(0, 1), "$.degree: cayley3 expects a degree-0 form (polynomial) document"),
            ("cayley3", scalar_tensor(x(3), "multivector"), "$.variance: cayley3 expects a degree-0 form (polynomial) document"),
        ],
    )
    def test_wrong_shape_is_a_located_error(self, tmp_path, capsys, kind, tensor, error):
        code, captured = run(capsys, "solve", kind, "--input", write_doc(tmp_path / "t.json", tensor_to_document(tensor)))
        assert (code, captured.err, captured.out) == (2, f"error: {error}\n", "")


class TestPrimitive:
    def test_closed_form(self, tmp_path, capsys):
        path = write_doc(tmp_path / "b.json", tensor_to_document(dx(0, 1)))
        code, captured = run(capsys, "primitive", "--input", path, "--format", "json")
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["homotopy_residual"] == "0"
        assert payload["exactness_residual"] == "0"

    def test_primitive_is_differentiated_once(self, tmp_path, capsys, monkeypatch):
        # d(input) for the homotopy residual, d(primitive) once for both residuals
        beta = dx(0, 2, coeff=x(1) * x(3)) + dx(1, 4, coeff=x(0) ** 2)
        path = write_doc(tmp_path / "b.json", tensor_to_document(beta))
        argv = ("primitive", "--input", path, "--format", "json")
        expected = run(capsys, *argv)
        calls = []
        original = calculus.exterior_derivative

        def counted(form):
            calls.append(form.degree)
            return original(form)

        monkeypatch.setattr(calculus, "exterior_derivative", counted)
        assert run(capsys, *argv) == expected
        assert sorted(calls) == [1, 2]
        assert json.loads(expected[1].out)["exactness_residual"] != "0"

    def test_degree_zero_rejected(self, function_file, capsys):
        code, _ = run(capsys, "primitive", "--input", function_file)
        assert code == 2

    @pytest.mark.parametrize(
        "tensor, location",
        [(scalar_tensor(x(3)), "$.degree"), (mv(0, 1), "$.variance")],
    )
    def test_wrong_shape_is_a_located_error(self, tmp_path, capsys, tensor, location):
        code, captured = run(capsys, "primitive", "--input", write_doc(tmp_path / "t.json", tensor_to_document(tensor)))
        error = f"error: {location}: primitive expects a form of degree >= 1\n"
        assert (code, captured.err, captured.out) == (2, error, "")


_UNIT = [{"exp": [0] * 8, "num": "1", "den": "1"}]
REPEATED_INDEX = {"variance": "form", "degree": 2, "terms": [{"idx": [0, 0], "coeff": _UNIT}, {"idx": [1, 0], "coeff": _UNIT}]}
REPEATED_INDEX_WARNING = "$.terms[0]: repeated index (0, 0) collapses the term to zero"


def _module_env():
    """The environment to run ``python -m cayley8.cli`` on this checkout, with no warning filter of its own."""
    src = str(Path(cayley8.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    env.pop("PYTHONWARNINGS", None)
    return env


class TestDocumentWarnings:
    """A document warning is one stderr line, never a traceback, whatever the warning filters."""

    def test_a_warning_is_one_line_and_the_command_goes_on(self, tmp_path, capsys):
        path = write_doc(tmp_path / "t.json", REPEATED_INDEX)
        code, captured = run(capsys, "decompose", "--input", path, "--format", "json")
        assert (code, captured.err) == (0, f"warning: {REPEATED_INDEX_WARNING}\n")
        assert json.loads(captured.out)["input"]["terms"][0]["idx"] == [0, 1]

    def test_a_warning_as_an_error_is_one_error_line_and_exit_2(self, tmp_path, capsys):
        path = write_doc(tmp_path / "t.json", REPEATED_INDEX)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, captured = run(capsys, "primitive", "--input", path)
        assert (code, captured.out, captured.err) == (2, "", f"error: {REPEATED_INDEX_WARNING}\n")

    @pytest.mark.parametrize("flags, status, prefix", [([], 0, "warning"), (["-W", "error"], 2, "error")])
    def test_module_run(self, tmp_path, flags, status, prefix):
        path = write_doc(tmp_path / "t.json", REPEATED_INDEX)
        done = subprocess.run(
            [sys.executable, *flags, "-m", "cayley8.cli", "decompose", "--input", path],
            capture_output=True, text=True, env=_module_env(), timeout=300,
        )
        assert (done.returncode, done.stderr) == (status, f"{prefix}: {REPEATED_INDEX_WARNING}\n")


# The paper's non-degeneracy of Psi: Q -> Q _| Psi has ranks 8, 28 and 8 on
# degrees 1, 2 and 3, T has eigenvalues -3 and +1, and S has -7 and 0; each
# rank and kernel dimension add up to the number of columns.
RANK_TABLE = [
    ("contraction_degree_1", "56x8", 8, 0, ""),
    ("contraction_degree_2", "28x28", 28, 0, "-3 (x7), +1 (x21)"),
    ("contraction_degree_3", "8x56", 8, 48, ""),
    ("two_form_wedge_star", "28x28", 28, 0, "-3 (x7), +1 (x21)"),
    ("three_form_double_wedge_star", "56x56", 8, 48, "-7 (x8), 0 (x48)"),
]


class TestRankReport:
    def test_json_table(self, capsys):
        code, captured = run(capsys, "rank-report", "--format", "json")
        assert code == 0
        rows = json.loads(captured.out)["maps"]
        assert rows == [dict(zip(("map", "shape", "rank", "kernel_dim", "eigenvalues"), row)) for row in RANK_TABLE]

    def test_text_table(self, capsys):
        code, captured = run(capsys, "rank-report")
        assert code == 0
        # a header and the same rows as the JSON, in columns of 30, 8, 5 and 11 characters
        columns = ((0, 30), (30, 38), (38, 43), (43, 54), (54, None))
        cells = [tuple(line[start:end].rstrip() for start, end in columns) for line in captured.out.splitlines()]
        assert cells == [("map", "shape", "rank", "kernel", "eigenvalues")] + [
            (name, shape, str(rank), str(kernel), spectrum) for name, shape, rank, kernel, spectrum in RANK_TABLE
        ]


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        code, captured = run(
            capsys, "verify", "--scope", "brackets", "--cases", "2", "--format", "json"
        )
        assert code == 0
        assert json.loads(captured.out)["overall_status"] == "pass"

    def test_mutation_exit_one(self, capsys):
        code, captured = run(
            capsys,
            "verify",
            "--scope",
            "core",
            "--cases",
            "1",
            "--mutate-hodge",
            "2",
            "--format",
            "json",
        )
        assert code == 1
        payload = json.loads(captured.out)
        assert payload["overall_status"] == "fail"
        assert payload["mutation"] == {"op": "hodge", "degree": 2}

    def test_raising_check_exits_one_with_a_report(self, capsys, monkeypatch):
        matrix = spin7._psi2_inverse_matrix()
        moved = matrix + ExactMatrix.from_quotients(matrix.shape, [(0, 0, 1, 1)])
        monkeypatch.setattr(spin7, "_psi2_inverse_matrix", lambda: moved)
        code, captured = run(capsys, "verify", "--scope", "spin7", "--cases", "16", "--format", "json")
        assert code == 1
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert payload["overall_status"] == "fail"
        by_id = {check["check_id"]: check for check in payload["checks"]}
        assert by_id["cayley_potential_roundtrip"]["note"].startswith("raised NotLocallyCayleyError")

    def test_argument_error_exits_two(self, capsys):
        code, captured = run(capsys, "verify", "--mutate-hodge", "9")
        assert code == 2
        assert captured.out == "" and "mutation degree must be in 0..8" in captured.err

    def test_deterministic_reports(self, capsys):
        _, first = run(
            capsys, "verify", "--scope", "brackets", "--cases", "2", "--seed", "9",
            "--format", "json",
        )
        _, second = run(
            capsys, "verify", "--scope", "brackets", "--cases", "2", "--seed", "9",
            "--format", "json",
        )

        def strip(raw):
            payload = json.loads(raw.out)
            for check in payload["checks"]:
                check.pop("elapsed_s")
            return payload

        assert strip(first) == strip(second)

    def test_registry_contains_mandated_check(self, capsys):
        code, captured = run(
            capsys, "verify", "--scope", "spin7", "--cases", "1", "--format", "json"
        )
        assert code == 0
        ids = {check["check_id"] for check in json.loads(captured.out)["checks"]}
        assert "lemma2_minus7" in ids


class TestUsageErrors:
    def test_missing_file(self, capsys):
        code, captured = run(capsys, "decompose", "--input", "/nonexistent.json")
        assert code == 2

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        code, captured = run(capsys, "decompose", "--input", str(path))
        assert code == 2
        assert "error" in captured.err

    def test_non_utf8_document(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
        code, captured = run(capsys, "decompose", "--input", str(path))
        assert code == 2
        assert captured.err.startswith("error:") and "UTF-8" in captured.err

    def test_document_nested_too_deeply(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, captured = run(capsys, "decompose", "--input", str(path))
        assert code == 2
        assert captured.err.startswith("error:") and "nested too deeply" in captured.err

    def test_exponent_above_cap_in_document(self, tmp_path, capsys):
        doc = tensor_to_document(dx(0, 1))
        doc["terms"][0]["coeff"][0]["exp"][3] = MAX_EXPONENT + 1  # 32768
        path = write_doc(tmp_path / "big.json", doc)
        code, captured = run(capsys, "decompose", "--input", path)
        assert code == 2
        assert captured.err.startswith("error:")
        assert "$.terms[0].coeff[0].exp[3]" in captured.err and "32768" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command, payload, location",
        [
            ("primitive", {"variance": "form", "degree": 12, "terms": []}, "$.degree"),
            ("decompose", {"variance": "form", "degree": 9, "terms": []}, "$.degree"),
            (
                "contract",
                {"multivector": tensor_to_document(mv(0)), "form": {"variance": "form", "degree": 10, "terms": []}},
                "$.form.degree",
            ),
        ],
    )
    def test_degree_above_eight_is_a_located_error(self, tmp_path, capsys, command, payload, location):
        # a zero tensor of degree 12 used to pass as a "primitive" with zero residuals
        code, captured = run(capsys, command, "--input", write_doc(tmp_path / "high.json", payload))
        assert code == 2
        assert captured.err.startswith(f"error: {location}:")
        assert captured.out == ""

    def test_exponent_overflow_in_product(self, tmp_path, capsys):
        # x0^17000 parses, but the orthogonality products need x0^34000
        path = write_doc(tmp_path / "tall.json", tensor_to_document(dx(0, 1, coeff=x(0) ** 17000)))
        code, captured = run(capsys, "decompose", "--input", path)
        assert code == 2
        assert captured.err.startswith("error:") and "MAX_EXPONENT" in captured.err
        assert captured.out == ""

    def test_decompose_beyond_the_interpreter_digit_limit(self, tmp_path, capsys):
        # norms have about 6,000 digits, above CPython's default int/str limit of 4,300
        num = int("7" * 3000)
        doc = tensor_to_document(dx(0, 1, coeff=num))
        code, captured = run(capsys, "decompose", "--input", write_doc(tmp_path / "wide.json", doc), "--format", "json")
        assert code == 0
        payload = json.loads(captured.out)
        assert captured.out == json.dumps(payload, indent=2) + "\n"
        norms = payload["norms"]
        # |b|^2 = num^2 splits 1 : 3 between the 7- and 21-parts; Decimal reads any length exactly
        assert [(Decimal(m["num"]), m["den"]) for m in norms["2_7"]] == [(num**2, "4")]
        assert [(Decimal(m["num"]), m["den"]) for m in norms["2_21"]] == [(3 * num**2, "4")]

    def test_number_literal_beyond_the_interpreter_digit_limit(self, tmp_path, capsys):
        text = json.dumps(tensor_to_document(dx(0, 1))).replace('"num": "1"', '"num": ' + "7" * 5000)
        path = tmp_path / "literal.json"
        path.write_text(text)
        code, captured = run(capsys, "decompose", "--input", str(path), "--format", "json")
        assert code == 0
        if hasattr(sys, "get_int_max_str_digits"):
            with pytest.raises(ParseError, match="invalid JSON"):
                parse_tensor(text)

    def test_digit_limit_restored_after_a_call(self, tmp_path, capsys):
        if not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("this interpreter has no int/str digit limit")
        before = sys.get_int_max_str_digits()
        run(capsys, "decompose", "--input", write_doc(tmp_path / "a.json", tensor_to_document(dx(0, 1))))
        run(capsys, "decompose", "--input", "/nonexistent.json")
        assert sys.get_int_max_str_digits() == before

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--cases", "-1"], "cases"),
            (["--mutate-hodge", "9"], "mutation degree"),
            (["--cases", "0"], "cases"),
        ],
    )
    def test_verify_arguments_out_of_range(self, capsys, flags, message):
        code, captured = run(capsys, "verify", "--scope", "core", *flags)
        assert code == 2
        assert captured.err.startswith("error:") and message in captured.err
        assert captured.out == ""

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_parser_built_once(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        usage = capsys.readouterr().out
        built = []
        original = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            original(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        code, captured = run(capsys, "rank-report", "--format", "json")
        assert code == 0 and json.loads(captured.out)["maps"]
        with pytest.raises(SystemExit) as info:
            main(["verify", "--scope", "nowhere"])
        assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out == usage
        assert built == []


def _json_commands(tmp_path):
    """One ``--format json`` argv per subcommand, with its expected exit code."""
    from cayley8.spin7 import cayley_form

    two_form = write_doc(tmp_path / "b.json", tensor_to_document(dx(0, 1, coeff=x(2) * x(5) - 3)))
    pair = write_doc(
        tmp_path / "pair.json",
        {"multivector": tensor_to_document(mv(0, 1, 2)), "form": tensor_to_document(cayley_form())},
    )
    one_form = write_doc(tmp_path / "alpha.json", tensor_to_document(dx(0, coeff=x(1))))
    function = write_doc(tmp_path / "f.json", tensor_to_document(scalar_tensor(x(3) * x(3))))
    # five terms share three monomials over dens 1, 2 and 6: the writer meets each
    # monomial again across terms, components and norms, at several indents
    shared = [
        {"exp": [1, 0, 2, 0, 0, 0, 0, 0], "num": "-3", "den": "2"},
        {"exp": [0] * 8, "num": "5", "den": "1"},
        {"exp": [0, 1, 0, 0, 0, 0, 0, 1], "num": "7", "den": "6"},
    ]
    keys = ((0, 1, 2, 3), (4, 5, 6, 7), (0, 1, 4, 5), (2, 3, 6, 7), (1, 2, 5, 6))
    four_form = write_doc(
        tmp_path / "four.json",
        {"variance": "form", "degree": 4, "terms": [{"idx": list(idx), "coeff": shared} for idx in keys]},
    )
    return {
        "decompose": (["decompose", "--input", two_form], 0),
        "decompose-four-form": (["decompose", "--input", four_form], 0),
        "contract": (["contract", "--input", pair], 0),
        "solve-cayley2": (["solve", "cayley2", "--input", one_form], 0),
        "solve-cayley3": (["solve", "cayley3", "--input", function], 0),
        "primitive": (["primitive", "--input", two_form], 0),
        "rank-report": (["rank-report"], 0),
        # floats (elapsed_s) and null (note, mutation)
        "verify-core": (["verify", "--scope", "core", "--cases", "1"], 0),
        # the exit-1 path of a failing report
        "verify-mutated": (["verify", "--scope", "spin7", "--cases", "1", "--mutate-hodge", "4"], 1),
    }


#: the pieces the paper splits a form of each decomposed degree into
SPLITS = {2: ["2_21", "2_7"], 4: ["4_1", "4_27", "4_35", "4_7"]}


class TestJsonOutput:
    """``--format json`` prints ``json.dumps(payload, indent=2)`` and a newline, byte for byte."""

    @pytest.mark.parametrize(
        "name",
        [
            "decompose",
            "decompose-four-form",
            "contract",
            "solve-cayley2",
            "solve-cayley3",
            "primitive",
            "rank-report",
            "verify-core",
            "verify-mutated",
        ],
    )
    def test_output_is_json_dumps_indent_2(self, name, tmp_path, capsys):
        argv, status = _json_commands(tmp_path)[name]
        code, captured = run(capsys, *argv, "--format", "json")
        assert code == status
        payload = json.loads(captured.out)
        assert captured.out == json.dumps(payload, indent=2) + "\n"
        if "residuals" in payload:  # decompose and solve: every identity holds exactly
            assert set(payload["residuals"].values()) == {"0"}
        if "components" in payload:  # decompose
            assert sorted(payload["components"]) == SPLITS[payload["input"]["degree"]]

    def test_pure_python_encoder_is_not_used(self, tmp_path, capsys, monkeypatch):
        # json.dump(..., indent=2) builds its encoder with _make_iterencode
        argv, _ = _json_commands(tmp_path)["decompose"]
        code, captured = run(capsys, *argv, "--format", "json")
        assert code == 0

        def refuse(*args, **kwargs):
            raise AssertionError("json's pure-Python encoder was called")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        assert run(capsys, *argv, "--format", "json") == (0, captured)


@pytest.mark.parametrize(
    "argv, status",
    [
        (["rank-report", "--format", "json"], 0),
        (["verify", "--scope", "spin7", "--cases", "1", "--mutate-hodge", "4", "--format", "json"], 1),
        (["verify", "--cases", "0"], 2),
    ],
    ids=["rank-report", "verify-mutated", "verify-cases-0"],
)
def test_module_run_exits_with_the_status_main_returns(argv, status, capsys):
    """``python -m cayley8.cli`` prints what ``main`` prints and hands its status to ``sys.exit``."""
    code, captured = run(capsys, *argv)
    done = subprocess.run(
        [sys.executable, "-m", "cayley8.cli", *argv], capture_output=True, text=True, env=_module_env(), timeout=300
    )
    timing = re.compile(r'"elapsed_s": [^,}\s]+')  # the one field of a report that moves between runs
    assert code == status
    assert (done.returncode, done.stderr) == (status, captured.err)
    assert timing.sub("", done.stdout) == timing.sub("", captured.out)


def test_readme_and_docstring_name_the_parsers_commands():
    """The README's command block and the ``cli`` docstring list what the parser takes."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command-line interface", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = build_parser()._subparsers._group_actions[0].choices
    assert set(re.findall(r"^cayley8 (\S+)", block, re.M)) == set(commands)
    (scopes,) = re.findall(r"--scope ([\w|]+)\]", block)
    assert tuple(scopes.split("|")) == SCOPES
    (kind,) = [action for action in commands["solve"]._actions if action.dest == "kind"]
    assert tuple(re.findall(r"^cayley8 solve (\S+)", block, re.M)) == tuple(kind.choices)
    listed = cli.__doc__.split("\n", 1)[0].split(":", 1)[1].strip(" .").split(", ")
    assert sorted(listed) == sorted(commands)
