"""E3 -- The k-SSP framework (Theorem 4.1 / Corollaries 4.6-4.8).

Measures the framework's HYBRID rounds and the achieved approximation ratio for
different source counts and CLIQUE plug-ins, next to the transformed guarantee
``2α+1`` (weighted) / ``α+2/η`` (unweighted) and the runtime shape
``η · n^{1-x}``.
"""

import pytest

from benchmarks.conftest import attach, bench_network, locality_workload, random_workload, run_once
from repro.clique import BroadcastKSourceBellmanFord, GatherShortestPaths
from repro.core.kssp import predicted_framework_rounds, shortest_paths_via_clique
from repro.graphs import reference
from repro.util.rand import RandomSource


def measured_stretch(graph, result, sources):
    """The largest ``d̃(v, s) / d(v, s)``; an undershoot anywhere fails outright."""
    truth = reference.multi_source_distances(graph, sources)
    worst = 1.0
    for s in sources:
        found = {v: result.estimate(v, s) for v in range(graph.node_count)}
        assert reference.has_one_sided_error(truth[s], found), f"an estimate d̃(·, {s}) undershoots"
        worst = max(worst, reference.max_stretch(truth[s], found))
    return worst


@pytest.mark.parametrize("k", [4, 16])
def test_kssp_gather_plugin(benchmark, k):
    """Gather-based exact CLIQUE plug-in with k sources on a weighted graph."""
    n = 120
    graph = random_workload(n, seed=k)
    sources = RandomSource(k).sample(list(range(n)), k)

    def run():
        network = bench_network(graph, seed=k)
        return shortest_paths_via_clique(network, sources, GatherShortestPaths())

    result = run_once(benchmark, run)
    stretch = measured_stretch(graph, result, sources)
    guaranteed = result.guaranteed_alpha(weighted=True)
    attach(
        benchmark,
        {
            "experiment": "E3",
            "n": n,
            "k": k,
            "measured_rounds": result.rounds,
            "runtime_shape": predicted_framework_rounds(n, result.spec),
            "measured_stretch": round(stretch, 4),
            "guaranteed_alpha_weighted": guaranteed,
            "skeleton_size": result.skeleton_size,
            "clique_rounds": result.clique_rounds,
        },
    )
    assert stretch <= guaranteed + 1e-9, f"stretch {stretch} above the Theorem 4.1 factor"


def test_kssp_bellman_ford_plugin(benchmark):
    """Bellman-Ford CLIQUE plug-in on an unweighted locality-heavy graph."""
    n = 120
    k = 8
    graph = locality_workload(n, seed=9)
    sources = RandomSource(9).sample(list(range(n)), k)

    def run():
        network = bench_network(graph, seed=9)
        return shortest_paths_via_clique(network, sources, BroadcastKSourceBellmanFord())

    result = run_once(benchmark, run)
    stretch = measured_stretch(graph, result, sources)
    guaranteed = result.guaranteed_alpha(weighted=False)
    attach(
        benchmark,
        {
            "experiment": "E3",
            "n": n,
            "k": k,
            "measured_rounds": result.rounds,
            "measured_stretch": round(stretch, 4),
            "guaranteed_alpha_unweighted": guaranteed,
        },
    )
    assert stretch <= guaranteed + 1e-9, f"stretch {stretch} above the Theorem 4.1 factor"
