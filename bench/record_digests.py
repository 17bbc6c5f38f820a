"""Record the output digests that the benchmark checks at the recorded seed.

Run from the root of a checkout, on a commit whose outputs are known good::

    python3 bench/record_digests.py

It writes ``bench/digests.json``: the sha256 of the verify reports at the
registry seeds ``REGISTRY_SEEDS`` (``VERIFY_CASES`` cases) with ``elapsed_s``
stripped, of every ``cli_documents`` response at seed 0, in pool order, and
of the rank report.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402

SEED = 0


def main() -> int:
    workdir = Path(tempfile.mkdtemp(prefix=".bench_docs-", dir=BENCH.parent))
    try:
        verify = workloads.VerifyRegistry(SEED)
        reports = {str(seed): verify.call(seed) for seed in workloads.REGISTRY_SEEDS}
        docs = workloads.CliDocuments(SEED, workdir)
        rank = workloads.RankReport()
        problems = [p for seed, report in reports.items() for p in verify.check(int(seed), report)]
        cli_digests = []
        for request in docs.pool:
            problems += docs.check(request, docs.call(request))
            cli_digests.append(docs.reference[request[0]])
        problems += rank.check(rank.ARGV, rank.call(rank.ARGV))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if problems:
        print("refusing to record failing outputs:", *problems, sep="\n  ", file=sys.stderr)
        return 1
    digests = {
        "seed": SEED,
        "cases": workloads.VERIFY_CASES,
        "verify_registry": {seed: workloads.report_digest(r) for seed, r in reports.items()},
        "cli_documents": cli_digests,
        "rank_report": rank.reference,
    }
    workloads.DIGESTS_PATH.write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
