import json

import pytest

from cayley8.cli import main
from cayley8.serialize import tensor_to_document
from cayley8.tensor import dx, mv, scalar_tensor
from cayley8.polynomial import x


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
        assert json.loads(captured.out)["flattened_from_multivector"] is True

    def test_unsupported_degree_is_usage_error(self, tmp_path, capsys):
        path = write_doc(tmp_path / "b.json", tensor_to_document(dx(0)))
        code, captured = run(capsys, "decompose", "--input", path)
        assert code == 2
        assert "error" in captured.err


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

    def test_wrong_shape_rejected(self, tmp_path, capsys):
        path = write_doc(tmp_path / "two.json", tensor_to_document(dx(0, 1)))
        code, _ = run(capsys, "solve", "cayley2", "--input", path)
        assert code == 2


class TestPrimitive:
    def test_closed_form(self, tmp_path, capsys):
        path = write_doc(tmp_path / "b.json", tensor_to_document(dx(0, 1)))
        code, captured = run(capsys, "primitive", "--input", path, "--format", "json")
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["homotopy_residual"] == "0"
        assert payload["exactness_residual"] == "0"

    def test_degree_zero_rejected(self, function_file, capsys):
        code, _ = run(capsys, "primitive", "--input", function_file)
        assert code == 2


class TestRankReport:
    def test_json_table(self, capsys):
        code, captured = run(capsys, "rank-report", "--format", "json")
        assert code == 0
        payload = json.loads(captured.out)
        by_name = {row["map"]: row for row in payload["maps"]}
        assert by_name["contraction_degree_1"]["shape"] == "56x8"
        assert by_name["contraction_degree_1"]["rank"] == 8
        assert by_name["contraction_degree_2"]["rank"] == 28
        assert "x7" in by_name["contraction_degree_2"]["eigenvalues"]
        assert by_name["contraction_degree_3"]["kernel_dim"] == 48
        assert "-7 (x8)" in by_name["three_form_double_wedge_star"]["eigenvalues"]

    def test_text_table(self, capsys):
        code, captured = run(capsys, "rank-report")
        assert code == 0
        assert "contraction_degree_3" in captured.out


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

    @pytest.mark.parametrize(
        "flags, message",
        [(["--cases", "-1"], "cases"), (["--mutate-hodge", "9"], "mutation degree")],
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
