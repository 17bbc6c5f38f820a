"""cayley8 benchmark: one workload, closed loop, one client, one process.

Run from the root of a checkout::

    python3 bench/run.py --workload verify_registry --seed 1 --seconds 35 --trace 0

It imports cayley8 from ``src/`` of that checkout, sets it up several times
from a cold import (``setup_s`` is the median), makes the workload's inputs
from ``--seed``, runs ops for ``--seconds`` and checks every output.  Every
end-to-end time is a wall time scaled to a fixed host speed by the gauge of
``reference.py``, which samples the host's speed all through the set-ups and
the ops; the header lines also give the unscaled wall times.  The last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.  A traced run
first runs ops untraced for half of ``--seconds``, then replays the same
requests with spans installed (see ``spans.py``); ``trace.overhead_ratio``
compares the two.  Lines before the result start with ``#``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Cold set-ups per run; ``setup_s`` is their median.
SETUPS = 7

#: Request kinds with a per-kind median in the traced run.
CLI_KINDS = ("decompose", "contract", "solve_cayley2", "solve_cayley3", "primitive", "rank_report")

#: Registry checks and scopes reported from the report's own ``elapsed_s``.
VERIFY_CHECKS = ("norm_split_three", "pullback_functorial", "three_form_spectrum", "four_form_split")
VERIFY_SCOPES = ("core", "spin7", "brackets")

def say(line: str) -> None:
    print(f"# {line}", flush=True)


def cold_setup() -> tuple[float, float, float]:
    """Import cayley8 afresh and fill every cached structure.

    Returns ``perf_counter()`` at the start, after the import and at the end.
    """
    for name in [n for n in sys.modules if n == "cayley8" or n.startswith("cayley8.")]:
        del sys.modules[name]
    start = perf_counter()
    importlib.import_module("cayley8.cli")
    imported = perf_counter()
    spin7 = sys.modules["cayley8.spin7"]
    spin7.cayley_form()
    for k in (1, 2, 3):
        spin7.map_matrix(k)
    spin7.two_form_operator_matrix()
    spin7.three_form_operator_matrix()
    spin7.seven_part_generators()
    spin7.project4(sys.modules["cayley8.tensor"].dx(0, 1, 2, 3))
    return start, imported, perf_counter()


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cayley8").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


class Loop:
    """Runs ops of one workload and keeps what the metrics need.

    ``wall`` holds the op times with the gauge's samples taken out;
    :meth:`finish` scales them, once the ops are done, into ``latency`` and
    the verify check and scope times.
    """

    def __init__(self, workload, gauge):
        self.workload = workload
        self.gauge = gauge
        self.attempted = 0
        self.failed = 0
        self.wall: list[float] = []
        self.windows: list[tuple[float, float]] = []  # perf_counter() at start and end
        self.kinds: list[str] = []
        self.requests: list = []
        self.reports: list[list[dict]] = []  # verify: the checks of each pass
        self.bytes_in = 0
        self.bytes_out = 0
        self.latency: list[float] = []
        self.check_times: dict[str, list[float]] = {}
        self.scope_times: dict[str, list[float]] = {scope: [] for scope in VERIFY_SCOPES}

    def op(self, request, keep: bool = True) -> None:
        wl = self.workload
        self.attempted += 1
        try:
            start = perf_counter()
            output = wl.call(request)
            end = perf_counter()
            problems = wl.check(request, output)
        except Exception:  # a crashing op is a failed op; the loop goes on
            self.failed += 1
            say(f"op {self.attempted} raised: {traceback.format_exc(limit=3)!r}")
            return
        if problems:
            self.failed += 1
            say(f"op {self.attempted} failed: {'; '.join(problems[:5])}")
        if not keep:
            return
        self.wall.append(self.gauge.own(start, end))
        self.windows.append((start, end))
        self.kinds.append(wl.kind(request))
        self.requests.append(request)
        if wl.name == "verify_registry":
            self.reports.append(output["checks"])
        else:
            self.bytes_out += len(output[1].encode())
            if wl.name == "cli_documents":
                self.bytes_in += request[3]

    def finish(self) -> None:
        """Scale the times of the kept ops."""
        gauge = self.gauge
        self.latency = [gauge.scaled(start, end) for start, end in self.windows]
        for checks, (start, _) in zip(self.reports, self.windows):
            # the checks ran one after the other from the start of the pass,
            # each for its own wall time elapsed_s, gauge samples included
            scopes = dict.fromkeys(self.scope_times, 0.0)
            for check in checks:
                end = start + check["elapsed_s"]
                seconds = gauge.scaled(start, end)
                self.check_times.setdefault(check["check_id"], []).append(seconds)
                scopes[check["scope"]] += seconds
                start = end
            for scope, seconds in scopes.items():
                self.scope_times[scope].append(seconds)

    def run_for(self, seconds: float) -> None:
        deadline = perf_counter() + seconds
        i = 0
        while True:
            self.op(self.workload.request(i))
            i += 1
            if perf_counter() >= deadline:
                break

    def kind_p50_ms(self, kind: str) -> float:
        values = [t for t, k in zip(self.latency, self.kinds) if k == kind]
        return 1000 * statistics.median(values) if values else 0.0


def end_to_end(loop: Loop, setups: list[tuple[float, float]]) -> dict[str, float]:
    latency = loop.latency
    if loop.workload.name == "verify_registry":
        # passes go round a fixed set of registry seeds, each with its own
        # cost: the median is over the seeds' medians, so it does not hang on
        # how far the run's last, partial round got; the tail is taken over
        # the checks in all passes
        p50 = statistics.median(loop.kind_p50_ms(kind) for kind in set(loop.kinds))
        tail = [t for times in loop.check_times.values() for t in times]
    else:
        p50 = 1000 * statistics.median(latency)
        tail = latency
    wall = loop.wall
    say(
        f"{len(latency)} ops, wall ms min/median/max {1000 * min(wall):.1f}/"
        f"{1000 * statistics.median(wall):.1f}/{1000 * max(wall):.1f}, "
        f"scaled ms min/median/max {1000 * min(latency):.1f}/"
        f"{1000 * statistics.median(latency):.1f}/{1000 * max(latency):.1f}; "
        f"{len(tail)} samples for the tail percentile"
    )
    return {
        "setup_s": statistics.median(s for s, _ in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_p50_ms": p50,
        "op_p90_ms": 1000 * (statistics.quantiles(tail, n=10, method="inclusive")[8] if len(tail) > 1 else tail[0]),
        "ops_per_s": len(latency) / sum(latency),
    }


def per_layer(untraced: Loop, traced_s: float, tracer, setups) -> dict[str, float]:
    calls, self_time, counts, maxima = tracer.calls, tracer.self_time, tracer.counts, tracer.maxima
    out: dict[str, float] = {}
    for span in calls:
        out[f"{span}.calls"] = calls[span]
        out[f"{span}.self_s"] = self_time[span]
    for key in ("polynomial.mul.term_pairs", "tensor.wedge.term_pairs", "tensor.contract.term_pairs"):
        out[key] = counts[key]
    out["polynomial.terms_max"] = maxima["polynomial.terms_max"]
    out["polynomial.coeff_bits_max"] = maxima["polynomial.coeff_bits_max"]
    for fn in ("merge_sign", "contraction", "canonicalize"):
        n = counts[f"multiindex.{fn}.calls"]
        out[f"multiindex.{fn}.calls"] = n
        out[f"multiindex.{fn}.hit_ratio"] = counts[f"multiindex.{fn}.hits"] / n if n else 0.0
    out["spin7.structure_build_s"] = statistics.median(b for _, b in setups)
    out["serialize.bytes_in"] = untraced.bytes_in / max(1, len(untraced.wall))
    out["serialize.bytes_out"] = untraced.bytes_out / max(1, len(untraced.wall))
    for layer, seconds in tracer.layer_self().items():
        out[f"{layer}.self_s"] = seconds
    for kind in CLI_KINDS:
        out[f"cli.{kind}.p50_ms"] = untraced.kind_p50_ms(kind)
    for scope, times in untraced.scope_times.items():
        out[f"verify.{scope}_s"] = statistics.median(times) if times else 0.0
    for check in VERIFY_CHECKS:
        times = untraced.check_times.get(check)
        out[f"verify.check.{check}_s"] = statistics.median(times) if times else 0.0
    out["trace.ops_s"] = traced_s
    out["trace.overhead_ratio"] = traced_s / sum(untraced.wall)
    return out


def result_json(spec: list[dict], values: dict[str, float], loops: list[Loop]) -> str:
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
        }
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cayley8" / "__init__.py").is_file():
        print(f"error: no cayley8 sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH))
    import reference
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    digests = workloads.load_digests()

    say(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, tracing {'on' if args.trace else 'off'}")
    say(f"python {platform.python_version()} ({platform.python_implementation()}), {platform.platform()}")
    say(f"nproc {os.cpu_count()}, one process, no threads, closed loop with one client")
    say(f"cayley8 commit {git_commit()}, sources sha256 {source_digest()}")

    gauge = reference.Gauge()
    workdir = Path(tempfile.mkdtemp(prefix=".bench_docs-", dir=ROOT))
    try:
        with gauge:
            stamps = [cold_setup() for _ in range(SETUPS)]
            gc.collect()  # drop the modules of earlier set-ups before anything is timed
            import cayley8

            if not Path(cayley8.__file__).resolve().is_relative_to(SRC.resolve()):
                print(f"error: imported cayley8 from {cayley8.__file__}, not {SRC}", file=sys.stderr)
                return 2
            workload = workloads.make_workload(args.workload, args.seed, workdir, digests)
            loop = Loop(workload, gauge)
            if workload.warm_up:
                loop.op(workload.request(0), keep=False)  # checked, not timed
            loop.run_for(args.seconds / 2 if args.trace else args.seconds)
        loop.finish()
        say(f"set-up wall seconds: {', '.join(f'{gauge.own(s, e):.4f}' for s, _, e in stamps)}")
        setups = [(gauge.scaled(s, e), gauge.scaled(i, e)) for s, i, e in stamps]
        say(f"set-up scaled seconds: {', '.join(f'{total:.4f}' for total, _ in setups)}")
        say(f"gauge: {len(gauge.units)} samples, {gauge.spent:.2f} s taken out of the times")
        if not args.trace:
            values = end_to_end(loop, setups)
            loops = [loop]
            metrics = spec["end_to_end"]
        else:
            import spans

            replay = Loop(workload, gauge)  # the gauge is off: spans see only cayley8
            tracer = spans.Tracer()
            with spans.installed(tracer):
                for request in loop.requests:
                    replay.op(request)
            values = per_layer(loop, sum(replay.wall), tracer, setups)
            loops = [loop, replay]
            metrics = spec["per_layer"]
            say(f"traced {len(replay.wall)} ops; layer self time as a share of traced op time:")
            for layer, seconds in sorted(tracer.layer_self().items(), key=lambda kv: -kv[1]):
                say(f"  {layer:<12} {seconds:9.4f} s  {seconds / values['trace.ops_s']:6.1%}")
        print(result_json(metrics, values, loops), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
