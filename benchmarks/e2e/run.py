"""Run the end-to-end benchmark and print every metric by name, with its unit.

Usage (from the repository root)::

    python -m benchmarks.e2e.run [--workload W] [--seed S] [--seconds T]
                                 [--trace [0|1]] [--smoke] [--out DIR]

Without ``--workload`` every workload runs in a fresh subprocess, one after
the other.  With one, the workload runs in this process: three timed set-up
builds, then a fixed number of cycles -- as many as take ``--seconds`` on
the reference host -- every answer checked against the oracle.  The count
does not depend on how fast the cycles run, so a faster change runs the
same operations on the same states.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics of ``BENCHMARK.json``, or with ``--trace`` its
``per_layer`` ones.  The full record goes to ``<out>/<workload>-seed<S>.json``
(and the spans of a traced run to ``...-spans.jsonl``).  The exit code is 0
only when every operation succeeded with a correct answer.

A traced run alternates untraced and traced cycles: the untraced ones give
the end-to-end numbers and the base of ``trace.overhead``, the traced ones
the spans.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
WORKLOAD_NAMES = ("query-mix", "serve-coalesced", "cold-start", "mutate-repair")
SETUP_BUILDS = 3
#: Fewest cycles in a run, so that a traced run has a traced cycle.
MIN_CYCLES = 2

#: Metrics outside BENCHMARK.json's gated set: the per-operation numbers of
#: each workload.  name -> (unit, better, bound); bounds are what ``compare``
#: applies.
DETAIL: dict[str, tuple[str, str, float]] = {
    "sssp_p50_ms": ("ms", "lower", 0.10),
    "sssp_p90_ms": ("ms", "lower", 0.10),
    "apsp_s": ("s", "lower", 0.10),
    "diameter_s": ("s", "lower", 0.10),
    "cold_sssp_s": ("s", "lower", 0.10),
    "mutate_apsp_s": ("s", "lower", 0.10),
    "serve_qps": ("1/s", "higher", 0.10),
    "serve_p50_ms": ("ms", "lower", 0.10),
    "serve_p90_ms": ("ms", "lower", 0.10),
    "rounds": ("count", "lower", 0.0),
    "error_rate": ("ratio", "lower", 0.0),
}


def load_benchmark() -> dict:
    """The benchmark description at the repository root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _use_repository_sources() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro package under {src}; run from a full checkout")
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _percentile(values: list[float], share: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(share * 100) - 1]


def _environment() -> dict:
    import numpy

    from repro.graphs.graph import WeightedGraph
    from repro.session import HybridSession

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "acceleration": HybridSession(WeightedGraph(1)).acceleration(),
    }


def _cycle_throughput(cycles: list) -> float:
    # Every cycle is the same batch of operations; the median cycle is robust
    # to the seconds-long slow spells of a shared host, where a total is not.
    ops = statistics.median(len(cycle.ops) for cycle in cycles)
    return ops / statistics.median(cycle.reference_wall for cycle in cycles)


def _detail_metrics(cycles: list) -> dict[str, float]:
    by_kind: dict[str, list[float]] = {}
    for cycle in cycles:
        for op in cycle.ops:
            by_kind.setdefault(op.kind, []).append(op.reference_seconds)
    detail: dict[str, float] = {}
    if "sssp" in by_kind:
        detail["sssp_p50_ms"] = 1000 * statistics.median(by_kind["sssp"])
        detail["sssp_p90_ms"] = 1000 * _percentile(by_kind["sssp"], 0.9)
    if "apsp" in by_kind:
        detail["apsp_s"] = statistics.median(by_kind["apsp"])
    if "diameter" in by_kind:
        detail["diameter_s"] = statistics.median(by_kind["diameter"])
    if "cold-sssp" in by_kind:
        detail["cold_sssp_s"] = statistics.median(by_kind["cold-sssp"])
    if "mutate-apsp" in by_kind:
        detail["mutate_apsp_s"] = statistics.median(by_kind["mutate-apsp"])
    if "serve-sssp" in by_kind:
        detail["serve_qps"] = _cycle_throughput(cycles)
        detail["serve_p50_ms"] = 1000 * statistics.median(by_kind["serve-sssp"])
        detail["serve_p90_ms"] = 1000 * _percentile(by_kind["serve-sssp"], 0.9)
    return detail


def _per_layer_metrics(workload, tracer, traced: list, untraced: list) -> dict[str, float]:
    from benchmarks.e2e.tracer import layer_metrics

    # Spans between operations (a cycle picking its inputs) are not timed.
    spans = [span for span in tracer.spans if span.op]
    count = len(traced)
    traced_wall = sum(cycle.wall for cycle in traced)
    metrics = layer_metrics(spans, count, traced_wall)
    metrics["serving.queue_wait_share"] = 0.0
    metrics.update(workload.layer_metrics(spans, traced))
    for counter in ("global_rounds", "local_rounds", "global_messages", "global_bits"):
        total = sum(getattr(cycle.metrics, counter) for cycle in traced)
        metrics[f"hybrid.{counter}"] = total / count
    metrics["session.preprocessing_rounds"] = (
        sum(cycle.preprocessing_rounds for cycle in traced) / count
    )
    # At reference speed, so that the host slowing down between the traced
    # and the untraced cycles does not read as tracing overhead.
    traced_reference = sum(cycle.reference_wall for cycle in traced) / count
    untraced_reference = sum(cycle.reference_wall for cycle in untraced) / len(untraced)
    metrics["trace.overhead"] = traced_reference / untraced_reference - 1
    metrics["trace.coverage"] = sum(span.self_time for span in spans) / traced_wall
    # Per traced cycle, so that it can be held against the same cycles of an
    # untraced run of the seed: tracing must not change a single round.
    metrics["rounds"] = sum(cycle.metrics.total_rounds for cycle in traced) / count
    return metrics


def cycle_count(workload, seconds: float) -> int:
    """The run's fixed number of cycles: those that take ``seconds`` at reference speed."""
    return max(MIN_CYCLES, round(seconds / workload.cycle_s))


def run_workload(
    name: str, seed: int, seconds: float, trace: bool = False, smoke: bool = False
) -> dict:
    """Set up, run and check one workload; return its full result record.

    Every time is reported at reference host speed: divided by the host's
    slowdown read right before and right after it (see hostspeed).  The
    record's ``raw`` part keeps the times as measured.
    """
    from benchmarks.e2e.hostspeed import Probe
    from benchmarks.e2e.tracer import Tracer
    from benchmarks.e2e.workloads import N, SMOKE_N, WORKLOADS

    # Lazy imports and first-call initialisation would land in the first
    # timed build only; one build at n=64 pays them for all three.
    warm_up = WORKLOADS[name](seed, SMOKE_N)
    try:
        warm_up.build()
    finally:
        warm_up.close()
    workload = WORKLOADS[name](seed, SMOKE_N if smoke else N)
    tracer = Tracer() if trace else None
    cycles = cycle_count(workload, seconds)
    untraced: list = []
    traced: list = []
    setup: list[float] = []
    setup_reference: list[float] = []
    # Cycle index -> simulated rounds.  A cycle's inputs depend only on the
    # seed and its index, so these are exact per seed, traced or not.
    rounds_by_cycle: list[int] = []
    with Probe(ROOT, workload.probe_parts, workload.host_elasticity) as probe:
        workload.probe = probe
        try:
            for _ in range(SETUP_BUILDS):
                gc.collect()
                before = probe.slowdown()
                setup.append(workload.build())
                setup_reference.append(setup[-1] / ((before + probe.slowdown()) / 2))
            # Read after set-up, a fixed amount of work.  Cycles then grow
            # memory by the same amount at any speed, but by an amount that
            # varies with the seed by several percent: see raw.rss_end_mb.
            peak_rss_mb = _peak_rss_mb()
            for index in range(cycles):
                tracing = trace and index % 2 == 1
                gc.collect()
                workload.begin_cycle()
                if tracing:
                    tracer.install()
                    workload.tracer = tracer
                try:
                    cycle = workload.run_cycle(index)
                finally:
                    if tracing:
                        tracer.uninstall()
                        workload.tracer = None
                workload.check(cycle)
                cycle.answers.clear()
                rounds_by_cycle.append(cycle.metrics.total_rounds)
                (traced if tracing else untraced).append(cycle)
            per_layer = _per_layer_metrics(workload, tracer, traced, untraced) if trace else {}
        finally:
            workload.close()

    ops = [op for cycle in untraced + traced for op in cycle.ops]
    failed = sum(1 for op in ops if not op.ok)
    headline = [
        op.reference_seconds for c in untraced for op in c.ops if op.kind == workload.headline
    ]
    detail = _detail_metrics(untraced)
    detail["rounds"] = sum(rounds_by_cycle)
    detail["error_rate"] = failed / len(ops)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "n": workload.n,
        "cycles": len(untraced),
        "traced_cycles": len(traced),
        "attempted": len(ops),
        "failed": failed,
        "correct": failed == 0,
        "host_slowdown": statistics.median(probe.readings),
        "end_to_end": {
            "setup_s": statistics.median(setup_reference),
            "latency_p50_ms": 1000 * statistics.median(headline),
            "throughput_ops_s": _cycle_throughput(untraced),
            "peak_rss_mb": peak_rss_mb,
        },
        "detail": detail,
        "per_layer": per_layer,
        "raw": {
            "setup_samples_s": setup,
            "cycle_samples_s": [cycle.wall for cycle in untraced],
            "slowdown_samples": probe.readings,
            "rounds_by_cycle": rounds_by_cycle,
            "rss_end_mb": _peak_rss_mb(),
        },
        "environment": _environment(),
        "spans": tracer.spans if trace else [],
    }


def _units(benchmark: dict) -> dict[str, str]:
    units = {entry["name"]: entry["unit"] for entry in benchmark["end_to_end"]}
    units.update({entry["name"]: entry["unit"] for entry in benchmark["per_layer"]})
    units.update({name: spec[0] for name, spec in DETAIL.items()})
    return units


def report(record: dict, benchmark: dict) -> str:
    """The human-readable table of one run plus the final JSON result line."""
    units = _units(benchmark)
    lines = [
        f"{record['workload']}: seed {record['seed']}, n={record['n']}, "
        f"{record['cycles']} cycles + {record['traced_cycles']} traced, "
        f"{record['attempted']} ops, {record['failed']} failed"
    ]
    for group in ("end_to_end", "detail", "per_layer"):
        for name, value in record[group].items():
            lines.append(f"  {name:32s} {value:14.6g} {units[name]}")
    gated = benchmark["per_layer" if record["trace"] else "end_to_end"]
    values = {**record["end_to_end"], **record["per_layer"]}
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
            for entry in gated
        },
    }
    lines.append(json.dumps(result))
    return "\n".join(lines)


def save(record: dict, out: Path) -> None:
    """Write the run's record (and its spans) under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}" + ("-trace" if record["trace"] else "")
    spans = record.pop("spans")
    if spans:
        with open(out / f"{stem}-spans.jsonl", "w") as handle:
            for span in spans:
                handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")
    (out / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds",
        type=float,
        help="run as many cycles as take this long at reference speed "
        "(default: BENCHMARK.json; with --smoke, 0, which gives the minimum of 2 cycles)",
    )
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="n=64 instead of n=1024")
    parser.add_argument("--out", type=Path, default=OUT, help="directory for result files")
    return parser.parse_args(argv)


def _run_all(args: argparse.Namespace) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, "-m", "benchmarks.e2e.run", "--workload", name]
        command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        command += ["--trace", str(args.trace), "--out", str(args.out)]
        if args.smoke:
            command.append("--smoke")
        status = max(status, subprocess.run(command, cwd=ROOT, check=False).returncode)
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    benchmark = load_benchmark()
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(benchmark["run_seconds"])
    _use_repository_sources()
    if args.workload is None:
        return _run_all(args)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    save(record, args.out)
    print(report(record, benchmark), flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    # BLAS threads would contend with the serving executor on a small box.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    # One CPU for every thread of the run: the vCPUs of a shared host slow
    # down separately, and the host-speed probe must see the CPU the
    # simulation ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.exit(main())
