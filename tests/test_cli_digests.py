"""CLI JSON output is pinned byte for byte.

Each case runs one ``cayley8`` subcommand with ``--format json`` through
``cli.main`` and compares the sha256 of everything it prints against a
digest recorded before the tensor sums were routed through one grouped
kernel.  Every command except ``rank-report`` reads a fixed document built
below from integer arithmetic alone (no random draws, no cayley8 code), so
the inputs cannot move with the library: unsorted indices, keys that meet
again after sorting (one pair cancels outright), zero numerators, polynomial
coefficients and denominators up to 997.
"""

import hashlib
import json
from itertools import combinations

import pytest

from cayley8.cli import main


def coefficient(seed: int, count: int) -> list[dict]:
    """``count`` monomials with two small exponents each and a wide fraction."""
    out = []
    for k in range(count):
        s = seed * 31 + k * 17
        exp = [(s >> i) % 3 if (s + i) % 4 == 0 else 0 for i in range(8)]
        out.append({"exp": exp, "num": str((s * 7919) % 2001 - 1000), "den": str(1 + (s * 104729) % 997)})
    return out


def document(variance: str, degree: int, count: int, seed: int) -> dict:
    keys = list(combinations(range(8), degree))
    terms = []
    for n in range(count):
        idx = list(keys[(seed * 13 + n * 7) % len(keys)])
        if n % 3 == 1:
            idx.reverse()
        terms.append({"idx": idx, "coeff": coefficient(seed + n, 1 + n % 3)})
    return {"variance": variance, "degree": degree, "terms": terms}


def cancelling_two_form() -> dict:
    doc = document("form", 2, 9, 1)
    # (0, 1) and (1, 0) with the same coefficient: the key cancels on load
    same = coefficient(40, 2)
    doc["terms"] += [{"idx": [0, 1], "coeff": same}, {"idx": [1, 0], "coeff": same}]
    return doc


CASES = {
    "rank-report": (["rank-report"], None),
    "decompose-2": (["decompose"], cancelling_two_form()),
    "decompose-3": (["decompose"], document("multivector", 3, 8, 2)),
    "decompose-4": (["decompose"], document("form", 4, 10, 3)),
    "contract": (["contract"], {"multivector": document("multivector", 2, 5, 4), "form": document("form", 4, 8, 5)}),
    "solve-cayley2": (["solve", "cayley2"], document("form", 1, 6, 6)),
    "solve-cayley3": (["solve", "cayley3"], document("form", 0, 1, 7)),
    "primitive": (["primitive"], document("form", 3, 7, 8)),
}

DIGESTS = {
    "rank-report": "e9433b9ccdf9fee70a357981b47a618a73969710c4f111b80e7fe3c4b4926d60",
    "decompose-2": "65638fd9869dda1c449399e4eb625dec4c54c7e6028bf33ad377bb5e80cfdd5e",
    "decompose-3": "acc90ed21253048fb3d9f2142e49c4b48ce1b8ed4104fe19636359065e231e46",
    "decompose-4": "d924c02196adc73665f6f7a78bb321992a378f8de63dc434eae82757120b914e",
    "contract": "0ac48096968e1dd616b3d22f1bbde33e34207c091b4e71cb1f671283193e3e0f",
    "solve-cayley2": "73c41c931fe7706c44792b19345128a9a6c1a310b6ff50b053d13ba672c5333d",
    "solve-cayley3": "311489a3cbfdcb61003171d97cbb11d401ec88ee03f0a305560db88ed835227a",
    "primitive": "c65989da8989dc25763302dfa512572ce59db494abddba07061dfaa6983c5e9c",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_json_digest(name, tmp_path, capsys):
    argv, doc = CASES[name]
    if doc is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        argv = argv + ["--input", str(path)]
    assert main(argv + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[name]
