"""E4 -- Exact SSSP (Theorem 1.3) via the framework with a single source.

Verifies exactness on every run and reports measured rounds against the
framework shape ``n^{1-x}`` (with the substitute CLIQUE algorithm's ``δ``),
plus the comparison against the pure-LOCAL ``Θ(D)`` baseline.
"""

import pytest

from benchmarks.conftest import attach, bench_network, locality_workload, run_once
from repro.clique import BroadcastBellmanFordSSSP
from repro.core.kssp import predicted_framework_rounds
from repro.core.sssp import sssp_exact
from repro.graphs import reference


@pytest.mark.parametrize("n", [100, 200])
def test_sssp_exact(benchmark, n):
    """Theorem 1.3 on a high-diameter graph (where LOCAL alone is slow)."""
    graph = locality_workload(n, seed=n)

    def run():
        network = bench_network(graph, seed=n)
        return sssp_exact(network, source=0)

    result = run_once(benchmark, run)
    truth = reference.single_source_distances(graph, 0)
    exact = all(abs(result.distance(v) - d) < 1e-9 for v, d in truth.items())
    attach(
        benchmark,
        {
            "experiment": "E4",
            "n": n,
            "measured_rounds": result.rounds,
            "exact": exact,
            "local_only_rounds": graph.hop_diameter(),
            "framework_shape": predicted_framework_rounds(n, BroadcastBellmanFordSSSP().spec),
            "skeleton_size": result.skeleton_size,
        },
    )
    assert exact, "Theorem 1.3 answer differs from the Dijkstra oracle"


def test_sssp_on_barbell(benchmark):
    """Structured high-SPD instance (the regime where Theorem 1.3 beats Õ(√SPD))."""
    from repro.graphs import generators

    graph = generators.barbell_graph(30, 60)

    def run():
        network = bench_network(graph, seed=77)
        return sssp_exact(network, source=0)

    result = run_once(benchmark, run)
    truth = reference.single_source_distances(graph, 0)
    exact = all(abs(result.distance(v) - d) < 1e-9 for v, d in truth.items())
    attach(
        benchmark,
        {
            "experiment": "E4",
            "graph": "barbell(30, 60)",
            "measured_rounds": result.rounds,
            "exact": exact,
            "shortest_path_diameter": reference.shortest_path_diameter(graph),
        },
    )
    assert exact, "Theorem 1.3 answer differs from the Dijkstra oracle"
