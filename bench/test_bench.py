"""Tests of the benchmark itself: its failure counter trips, its digests hold.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_hodge_mutation_counts_as_failed_op():
    workload = workloads.VerifyRegistry(seed=1, cases=2, star_flip_degree=2)
    loop = run.Loop(workload, reference.Gauge())
    loop.op(workload.request(0))
    assert loop.attempted == 1
    assert loop.failed > 0
    assert any("overall_status" in p for p in workload.check(0, workload.call(0)))


def test_tampered_expected_rank_counts_as_failed_op():
    rows = json.loads(json.dumps(workloads.EXPECTED_RANK_REPORT))
    rows["contraction_degree_2"]["rank"] = 27
    loop = run.Loop(workloads.RankReport(expected_rows=rows), reference.Gauge())
    loop.op(workloads.RankReport.ARGV)
    assert loop.failed > 0


def test_untampered_ops_pass_and_match_recorded_digests(tmp_path):
    digests = workloads.load_digests()
    assert digests["seed"] == 0 and digests["cases"] == workloads.VERIFY_CASES
    assert "0" in digests["verify_registry"]
    for name in workloads.WORKLOADS:
        workload = workloads.make_workload(name, 0, tmp_path, digests)
        loop = run.Loop(workload, reference.Gauge())
        requests = workload.pool if name == "cli_documents" else [workload.request(0)]
        for request in requests:
            loop.op(request)
        assert (loop.attempted, loop.failed) == (len(requests), 0), name


def test_changed_digest_counts_as_failed_op(tmp_path):
    digests = dict(workloads.load_digests(), rank_report="0" * 64)
    loop = run.Loop(workloads.make_workload("rank_report", 0, tmp_path, digests), reference.Gauge())
    loop.op(workloads.RankReport.ARGV)
    assert loop.failed == 1


def test_gauge_samples_while_entered_and_takes_its_samples_out():
    gauge = reference.Gauge()
    with gauge:
        start = perf_counter()
        while perf_counter() - start < 0.3:
            reference.unit()
        end = perf_counter()
    assert len(gauge.units) >= 5 and gauge.spent == pytest.approx(sum(gauge.units))
    assert gauge.own(start, end) == pytest.approx(end - start - gauge.spent, abs=0.01)
    gauge.ends, gauge.units = [1.0, 1.5, 9.0], [0.01, 0.03, 1.0]
    assert gauge.own(0.9, 1.6) == pytest.approx(0.7 - 0.04)
    assert gauge.scale(0.9, 1.6) == pytest.approx(reference.UNIT_S / 0.02)
    assert gauge.scaled(0.9, 1.6) == pytest.approx(0.66 * reference.UNIT_S / 0.02)


def _result(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rank_report", "--seed", "3", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_has_every_metric_of_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _result(ROOT, "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in spec[section]]
    for metric in spec[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _result(tmp_path, "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
