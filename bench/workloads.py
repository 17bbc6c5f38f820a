"""The benchmark's three workloads: inputs made from a seed, one op, its checks.

Every workload is a closed loop with one client: the next op starts only
after the previous one has returned and been checked.  An op is

* ``verify_registry``: one full ``run_checks(scope="all", seed, cases)`` pass;
* ``cli_documents``: one ``cayley8.cli.main([...])`` request on a generated
  tensor document, stdout captured;
* ``rank_report``: one ``cayley8.cli.main(["rank-report", ...])`` request.

Checks use values taken from the paper (ranks, spectra, every residual zero),
never values computed by the code under test, plus output digests: repeated
ops on the same input must give byte-identical output, and outputs for the
inputs recorded in ``digests.json`` must match it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

DIM = 8

#: Registry size at the commit the benchmark was defined on.
EXPECTED_CHECKS = 57

#: Random instances per identity in one registry pass.
VERIFY_CASES = 16

#: Registry seeds of the passes; each run goes round all of them.
REGISTRY_SEEDS = (0, 1, 2)

#: Rank report rows from the paper: contraction maps 56x8, 28x28, 8x56 with
#: ranks 8, 28, 8; spectra -3 (x7) / +1 (x21) on two-forms and -7 (x8) /
#: 0 (x48) on three-forms.
EXPECTED_RANK_REPORT = {
    "contraction_degree_1": {"shape": "56x8", "rank": 8},
    "contraction_degree_2": {"shape": "28x28", "rank": 28, "eigenvalues": "-3 (x7), +1 (x21)"},
    "contraction_degree_3": {"shape": "8x56", "rank": 8},
    "two_form_wedge_star": {"shape": "28x28", "eigenvalues": "-3 (x7), +1 (x21)"},
    "three_form_double_wedge_star": {"shape": "56x56", "eigenvalues": "-7 (x8), 0 (x48)"},
}

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def report_digest(report: dict) -> str:
    """Digest of a verify report with every timing field stripped."""
    stripped = dict(report)
    stripped["checks"] = [
        {k: v for k, v in check.items() if k != "elapsed_s"} for check in report["checks"]
    ]
    return sha256(json.dumps(stripped, sort_keys=True).encode())


class Workload:
    """One op per call of :meth:`call`; :meth:`check` returns its problems."""

    name = ""
    #: Whether one untimed op runs first, to fill caches the set-up leaves empty.
    warm_up = True

    def request(self, i: int):
        """The i-th request of the stream."""
        raise NotImplementedError

    def kind(self, request) -> str:
        raise NotImplementedError

    def call(self, request):
        raise NotImplementedError

    def check(self, request, output) -> list[str]:
        raise NotImplementedError


# -- verify_registry -----------------------------------------------------------


class VerifyRegistry(Workload):
    """Registry passes over the registry seeds in :data:`REGISTRY_SEEDS`.

    Each round of passes takes every registry seed once, in an order drawn
    from ``seed``.  The seeds stay fixed because the cost of a pass depends
    strongly on its registry seed (at ``cases=4`` the polynomial term pairs
    of a pass range over a factor of seven across registry seeds 0 to 19):
    a run of a few passes at fresh seeds would measure which seeds it drew,
    not the code.  The recorded digests of these seeds check every pass.
    """

    name = "verify_registry"

    def __init__(self, seed: int, cases: int = VERIFY_CASES, star_flip_degree=None, expected=None):
        from cayley8 import verify

        self.verify = verify
        self.cases = cases
        self.star_flip_degree = star_flip_degree
        self.expected = expected or {}  # recorded report digest per registry seed
        self.rng = random.Random(f"verify_registry:order:{seed}")
        self.order: list[int] = []

    def request(self, i: int) -> int:
        if i % len(REGISTRY_SEEDS) == 0:
            self.order = list(REGISTRY_SEEDS)
            self.rng.shuffle(self.order)
        return self.order[i % len(REGISTRY_SEEDS)]

    def kind(self, registry_seed: int) -> str:
        return f"registry_seed_{registry_seed}"

    def call(self, registry_seed: int):
        return self.verify.run_checks(
            scope="all", seed=registry_seed, cases=self.cases, star_flip_degree=self.star_flip_degree
        )

    def check(self, registry_seed: int, report) -> list[str]:
        problems = []
        if report["overall_status"] != "pass":
            problems.append(f"overall_status {report['overall_status']!r}")
        if len(report["checks"]) != EXPECTED_CHECKS:
            problems.append(f"{len(report['checks'])} checks, expected {EXPECTED_CHECKS}")
        expected = self.expected.get(str(registry_seed))
        if expected is not None and report_digest(report) != expected:
            problems.append(f"report for registry seed {registry_seed} differs from digests.json")
        return problems


# -- CLI requests --------------------------------------------------------------


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Call ``cli.main(argv)`` in process; return the exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


class RankReport(Workload):
    name = "rank_report"
    ARGV = ["rank-report", "--format", "json"]

    def __init__(self, expected_rows=None, expected_digest=None):
        from cayley8 import cli

        self.cli = cli
        self.expected_rows = EXPECTED_RANK_REPORT if expected_rows is None else expected_rows
        self.expected_digest = expected_digest
        self.reference = None

    def request(self, i: int):
        return self.ARGV

    def kind(self, request) -> str:
        return "rank_report"

    def call(self, argv):
        return run_cli(self.cli, argv)

    def check(self, argv, output) -> list[str]:
        code, text = output
        if code != 0:
            return [f"exit code {code}"]
        problems = []
        rows = {row["map"]: row for row in json.loads(text)["maps"]}
        if set(rows) != set(self.expected_rows):
            problems.append(f"maps {sorted(rows)}")
        for name, expected in self.expected_rows.items():
            row = rows.get(name, {})
            for key, value in expected.items():
                if row.get(key) != value:
                    problems.append(f"{name}.{key} = {row.get(key)!r}, expected {value!r}")
        digest = sha256(text.encode())
        if self.expected_digest is not None and digest != self.expected_digest:
            problems.append("response digest differs from digests.json")
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            problems.append("response differs from the first one of this run")
        return problems


# -- cli_documents: generated tensor documents ---------------------------------

# Each request kind with its argv prefix and the shape of its input document:
# (variance, degree, tensor terms, polynomial degree, polynomial terms).
# Shapes are fixed so that seeds change only values and positions.
DOCUMENT_KINDS = {
    "decompose2": (["decompose"], ("form", 2, 10, 3, 4)),
    "decompose3": (["decompose"], ("form", 3, 10, 3, 4)),
    "decompose4": (["decompose"], ("form", 4, 6, 2, 3)),
    "decompose_mv": (["decompose"], ("multivector", 3, 8, 3, 3)),
    "contract": (["contract"], None),
    "solve_cayley2": (["solve", "cayley2"], ("form", 1, 8, 4, 5)),
    "solve_cayley3": (["solve", "cayley3"], ("form", 0, 1, 5, 8)),
    "primitive": (["primitive"], None),
}
CONTRACT_SHAPES = (("multivector", 2, 6, 3, 4), ("form", 4, 12, 2, 4))
#: The primitive input is d(alpha) for alpha of this shape, so it is closed.
PRIMITIVE_POTENTIAL = ("form", 2, 6, 4, 4)

DOCS_PER_KIND = 12


def _fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([n for n in range(-999, 1000) if n]), rng.randint(1, 99))


def _polynomial(rng: random.Random, degree: int, terms: int) -> dict[tuple, Fraction]:
    poly: dict[tuple, Fraction] = {}
    for _ in range(terms):
        exp = [0] * DIM
        for _ in range(rng.randint(0, degree)):
            exp[rng.randrange(DIM)] += 1
        key = tuple(exp)
        poly[key] = poly.get(key, Fraction(0)) + _fraction(rng)
    return {e: c for e, c in poly.items() if c}


def _tensor(rng: random.Random, shape) -> dict[tuple, dict]:
    _, degree, nterms, poly_degree, poly_terms = shape
    keys = rng.sample(list(combinations(range(DIM), degree)), nterms)
    return {key: _polynomial(rng, poly_degree, poly_terms) for key in sorted(keys)}


def _exterior_derivative(form: dict[tuple, dict]) -> dict[tuple, dict]:
    """d on a form given as {sorted index: {exponents: coefficient}}."""
    out: dict[tuple, dict] = {}
    for idx, poly in form.items():
        for i in range(DIM):
            if i in idx:
                continue
            key = tuple(sorted(idx + (i,)))
            sign = -1 if sum(1 for j in idx if j < i) % 2 else 1
            target = out.setdefault(key, {})
            for exp, c in poly.items():
                if exp[i]:
                    lowered = exp[:i] + (exp[i] - 1,) + exp[i + 1 :]
                    target[lowered] = target.get(lowered, Fraction(0)) + sign * c * exp[i]
    cleaned = {k: {e: c for e, c in p.items() if c} for k, p in out.items()}
    return {k: p for k, p in cleaned.items() if p}


def _document(variance: str, degree: int, tensor: dict[tuple, dict]) -> dict:
    return {
        "variance": variance,
        "degree": degree,
        "terms": [
            {
                "idx": list(idx),
                "coeff": [
                    {"exp": list(exp), "num": str(c.numerator), "den": str(c.denominator)}
                    for exp, c in sorted(poly.items())
                ],
            }
            for idx, poly in sorted(tensor.items())
        ],
    }


def _shaped_document(rng: random.Random, shape) -> dict:
    return _document(shape[0], shape[1], _tensor(rng, shape))


def make_documents(seed: int) -> list[tuple[str, list[str], dict]]:
    """The request pool for a seed: (kind, argv prefix, input document)."""
    rng = random.Random(f"cli_documents:{seed}")
    pool = []
    for kind, (argv, shape) in DOCUMENT_KINDS.items():
        for _ in range(DOCS_PER_KIND):
            if kind == "contract":
                doc = {
                    "multivector": _shaped_document(rng, CONTRACT_SHAPES[0]),
                    "form": _shaped_document(rng, CONTRACT_SHAPES[1]),
                }
            elif kind == "primitive":
                closed = {}
                while not closed:
                    closed = _exterior_derivative(_tensor(rng, PRIMITIVE_POTENTIAL))
                doc = _document("form", PRIMITIVE_POTENTIAL[1] + 1, closed)
            else:
                doc = _shaped_document(rng, shape)
            pool.append((kind, argv, doc))
    return pool


def _residual_fields(payload: dict) -> dict[str, str]:
    """Every residual a response reports: its ``residuals`` and ``*_residual`` keys."""
    fields = dict(payload.get("residuals", {}))
    fields.update({k: v for k, v in payload.items() if k.endswith("_residual")})
    return fields


class CliDocuments(Workload):
    """A seeded stream over a fixed pool of documents written to ``workdir``."""

    name = "cli_documents"

    def __init__(self, seed: int, workdir: Path, expected=None):
        from cayley8 import cli

        self.cli = cli
        self.expected = expected  # recorded response digests, one per pool entry
        self.pool = []
        for n, (kind, argv, doc) in enumerate(make_documents(seed)):
            path = workdir / f"doc{n:03d}.json"
            data = json.dumps(doc).encode()
            path.write_bytes(data)
            self.pool.append((n, kind, argv + ["--input", str(path), "--format", "json"], len(data)))
        self.rng = random.Random(f"cli_documents:order:{seed}")
        self.order: list[int] = []
        self.reference: dict[int, str] = {}

    def request(self, i: int):
        if i % len(self.pool) == 0:
            self.order = list(range(len(self.pool)))
            self.rng.shuffle(self.order)
        return self.pool[self.order[i % len(self.pool)]]

    def kind(self, request) -> str:
        kind = request[1]
        return "decompose" if kind.startswith("decompose") else kind

    def call(self, request):
        return run_cli(self.cli, request[2])

    def check(self, request, output) -> list[str]:
        n, kind = request[0], request[1]
        code, text = output
        if code != 0:
            return [f"doc{n:03d} ({kind}): exit code {code}"]
        digest = sha256(text.encode())
        if n in self.reference:
            if digest != self.reference[n]:
                return [f"doc{n:03d} ({kind}): response differs from its first one"]
            return []
        self.reference[n] = digest
        problems = []
        if self.expected is not None and digest != self.expected[n]:
            problems.append(f"doc{n:03d} ({kind}): response digest differs from digests.json")
        payload = json.loads(text)
        for field, value in _residual_fields(payload).items():
            if value != "0":
                problems.append(f"doc{n:03d} ({kind}): residual {field} = {value}")
        if kind == "contract" and not self._contract_matches(request[2], payload):
            problems.append(f"doc{n:03d} (contract): result differs from the one-vector expansion")
        return problems

    def _contract_matches(self, argv: list[str], payload: dict) -> bool:
        """Compare with contracting one basis vector at a time (verify's oracle)."""
        from cayley8.serialize import document_to_tensor
        from cayley8.verify import contraction_oracle

        with open(argv[argv.index("--input") + 1], encoding="utf-8") as handle:
            doc = json.load(handle)
        q = document_to_tensor(doc["multivector"])
        beta = document_to_tensor(doc["form"])
        return document_to_tensor(payload["result"]) == contraction_oracle(q, beta)


WORKLOADS = ("verify_registry", "cli_documents", "rank_report")


def make_workload(name: str, seed: int, workdir: Path, digests: dict) -> Workload:
    """Build a workload with the recorded digests that apply to its inputs."""
    if name == "verify_registry":
        expected = digests["verify_registry"] if digests["cases"] == VERIFY_CASES else None
        return VerifyRegistry(seed, expected=expected)
    if name == "cli_documents":
        expected = digests["cli_documents"] if digests["seed"] == seed else None
        return CliDocuments(seed, workdir, expected=expected)
    if name == "rank_report":
        return RankReport(expected_digest=digests["rank_report"])
    raise ValueError(f"unknown workload {name!r}")
