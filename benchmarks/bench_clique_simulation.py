"""E8 -- CLIQUE simulation on a skeleton (Corollary 4.1).

Measures the HYBRID rounds needed to simulate one CLIQUE round among skeleton
nodes for different skeleton sizes, next to the ``|S|²/n + √|S|`` bound, and
ablates the skeleton-size exponent ``x`` around the framework optimum.
"""

import pytest

from benchmarks.conftest import (
    attach,
    bench_network,
    locality_workload,
    run_once,
    smoke_scaled,
)
from repro.core.clique_simulation import HybridCliqueTransport, predicted_simulation_rounds
from repro.core.skeleton import compute_skeleton


@pytest.mark.parametrize("sampling_exponent", [0.3, 0.5, 0.7])
def test_clique_round_simulation_cost(benchmark, sampling_exponent):
    """HYBRID rounds per simulated CLIQUE round as the skeleton grows."""
    n = smoke_scaled(180, 24)
    graph = locality_workload(n, seed=11)
    probability = n ** (sampling_exponent - 1.0)

    def run():
        network = bench_network(graph, seed=int(sampling_exponent * 100))
        skeleton = compute_skeleton(
            network, probability, ensure_connected=True, keep_local_knowledge=False
        )
        transport = HybridCliqueTransport(network, skeleton)
        before = network.metrics.total_rounds
        for _ in range(3):
            transport.exchange({})
        per_round = (network.metrics.total_rounds - before) / 3.0
        return skeleton, per_round

    skeleton, per_round = run_once(benchmark, run)
    attach(
        benchmark,
        {
            "experiment": "E8",
            "n": n,
            "sampling_exponent_x": sampling_exponent,
            "skeleton_size": skeleton.size,
            "hybrid_rounds_per_clique_round": round(per_round, 2),
            "corollary_4_1_shape": round(predicted_simulation_rounds(n, skeleton.size), 2),
        },
    )
