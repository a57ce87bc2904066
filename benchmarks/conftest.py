"""Shared helpers for the benchmark harness.

Every benchmark measures wall-clock time of the *simulation* (pytest-benchmark's
native metric) but the quantity the paper is about -- simulated HYBRID rounds --
is attached to ``benchmark.extra_info`` together with the relevant theoretical
bound, so ``pytest benchmarks/ --benchmark-only`` regenerates the comparison
tables of EXPERIMENTS.md.

At session end the harness additionally writes ``benchmarks/BENCH_core.json``:
one machine-readable record per benchmark (name, wall time, and whatever the
benchmark attached -- ``n``, measured rounds, ...), so future PRs can diff
the perf trajectory without parsing pytest output.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Callable, Dict

from repro.graphs import generators
from repro.hybrid import HybridNetwork, ModelConfig
from repro.util.rand import RandomSource

# Benchmark workloads are intentionally modest so the whole harness finishes in
# a few minutes; EXPERIMENTS.md records a larger offline sweep produced with
# the same code.
BENCH_CONFIG = dict(skeleton_xi=0.75)

#: Output of the machine-readable benchmark record.  The trajectory tooling
#: looks for ``BENCH_*.json`` at the repository root, so the merged record is
#: written both here and there (kept in sync).
BENCH_JSON_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_core.json"
ROOT_BENCH_JSON_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_core.json"

#: ``REPRO_BENCH_SCALE=smoke`` shrinks every workload to a tiny n so CI can
#: run the NCC-bound benches per PR as an engine regression smoke test; smoke
#: runs never touch the committed BENCH record.
SMOKE = os.environ.get("REPRO_BENCH_SCALE") == "smoke"


def smoke_scaled(default: int, smoke: int) -> int:
    """The workload size to use under the current benchmark scale."""
    return smoke if SMOKE else default


def bench_network(graph, seed: int = 1) -> HybridNetwork:
    """A HYBRID network with the benchmark configuration."""
    return HybridNetwork(graph, ModelConfig(rng_seed=seed, **BENCH_CONFIG))


def random_workload(n: int, seed: int = 1, weighted: bool = True):
    """The default random-graph workload."""
    return generators.connected_workload(n, RandomSource(seed), weighted=weighted, max_weight=8)


def locality_workload(n: int, seed: int = 1, max_weight: int = 1):
    """A high-diameter, locality-heavy workload (ring of local neighbourhoods)."""
    return generators.random_geometric_like_graph(
        n,
        neighbourhood=2,
        rng=RandomSource(seed),
        extra_edge_probability=0.01,
        max_weight=max_weight,
    )


def run_once(benchmark, function: Callable[[], object]):
    """Run a simulation exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, rounds=1, iterations=1)


def run_repeated(benchmark, function: Callable[[], object], rounds: int = 3):
    """Run a simulation several times (mean wall time); for speedup records."""
    return benchmark.pedantic(function, rounds=rounds, iterations=1)


def attach(benchmark, info: Dict[str, object]) -> None:
    """Attach experiment metadata to the benchmark report."""
    for key, value in info.items():
        benchmark.extra_info[key] = value


def _load_records(path: pathlib.Path) -> Dict[str, dict]:
    if not path.exists():
        return {}
    try:
        return {record["name"]: record for record in json.loads(path.read_text())}
    except (ValueError, KeyError, TypeError):
        return {}


def pytest_sessionfinish(session, exitstatus):
    """Emit the machine-readable benchmark record, one entry per benchmark.

    Records are merged by benchmark name into whatever the files already
    hold, so running a subset (``pytest benchmarks/bench_sssp.py``) refreshes
    those entries without truncating the rest of the committed record.  The
    merged record is written to ``benchmarks/BENCH_core.json`` and mirrored
    to the repo root (where the trajectory tooling looks for it); smoke-scale
    runs are for CI regression checks only and never rewrite the record.
    """
    if SMOKE:
        return
    benchmark_session = getattr(session.config, "_benchmarksession", None)
    if benchmark_session is None or not benchmark_session.benchmarks:
        return
    # The committed benchmarks/ record wins over the generated root mirror,
    # so a stale leftover mirror can never silently revert committed entries.
    existing = _load_records(ROOT_BENCH_JSON_PATH)
    existing.update(_load_records(BENCH_JSON_PATH))
    for bench in benchmark_session.benchmarks:
        record = {
            "name": bench.name,
            "group": bench.group,
            "wall_time_seconds": float(bench.stats.mean) if bench.stats.rounds else None,
        }
        record.update(bench.extra_info)
        existing[bench.name] = record
    records = sorted(existing.values(), key=lambda record: record["name"])
    payload = json.dumps(records, indent=2, default=str) + "\n"
    BENCH_JSON_PATH.write_text(payload)
    ROOT_BENCH_JSON_PATH.write_text(payload)
