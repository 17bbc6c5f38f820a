"""No library path reads a dense ``Fraction`` view.

``Polynomial.terms`` and ``ExactMatrix.rows`` are built on each call for
tests and readers; every kernel, check and command works on the integer
numerators over one denominator.  The registry, ``rank-report`` and every
document command run twice here, once with both views patched to raise and
every cached operator rebuilt under the patch, and must give the same
output.  The next library path that goes dense fails this test.
"""

import json
import sys
from fractions import Fraction

import pytest

from cayley8.cli import main
from cayley8.linalg import ExactMatrix
from cayley8.polynomial import Polynomial, x
from cayley8.verify import run_checks
from test_cli_digests import CASES, document

RUNS = {**CASES, "decompose-3-form": (["decompose"], document("form", 3, 8, 2))}


def outputs(tmp_path, capsys) -> dict:
    report = run_checks("all", seed=0, cases=2)
    checks = [{k: v for k, v in check.items() if k != "elapsed_s"} for check in report["checks"]]
    out = {"verify": {**report, "checks": checks}}
    for name, (argv, doc) in sorted(RUNS.items()):
        if doc is not None:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            argv = argv + ["--input", str(path)]
        for fmt in ("json", "text"):
            status = main(argv + ["--format", fmt])
            captured = capsys.readouterr()
            out[name, fmt] = (status, captured.out, captured.err)
    return out


def clear_caches() -> None:
    """Empty every ``functools.cache`` of the package."""
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "cayley8":
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def test_no_library_path_reads_a_dense_view(tmp_path, capsys, monkeypatch):
    expected = outputs(tmp_path, capsys)
    assert expected["verify"]["overall_status"] == "pass"
    assert all(run[0] == 0 for name, run in expected.items() if name != "verify")

    def refuse(self):
        raise AssertionError("a library path read a dense Fraction view")

    monkeypatch.setattr(Polynomial, "terms", property(refuse))
    monkeypatch.setattr(ExactMatrix, "rows", property(refuse))
    clear_caches()  # so each cached operator is built again with the views refused
    assert outputs(tmp_path, capsys) == expected


def test_terms_is_a_read_only_fraction_view():
    p = x(0) * Fraction(2, 3) - x(1) ** 2
    assert p.terms == {(1, 0, 0, 0, 0, 0, 0, 0): Fraction(2, 3), (0, 2, 0, 0, 0, 0, 0, 0): -1}
    assert all(type(c) is Fraction for c in p.terms.values())
    assert p.terms is not p.terms  # built on each call, never stored
    with pytest.raises(TypeError):
        p.terms[(0,) * 8] = 1
    assert (0,) * 8 not in p.terms
