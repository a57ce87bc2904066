"""E8 -- CLIQUE simulation on a skeleton (Corollary 4.1).

Measures the HYBRID rounds needed to simulate one CLIQUE round among skeleton
nodes for different skeleton sizes, next to the ``|S|²/n + √|S|`` bound, and
ablates the skeleton-size exponent ``x`` around the framework optimum.  The
padding-only rounds (``exchange(MessageBatch.empty())``) are timed next to
payload rounds in which every ordered pair carries a message, as
``GatherShortestPaths`` sends.
"""

import numpy as np
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
from repro.hybrid.batch import MessageBatch


@pytest.mark.parametrize("sampling_exponent", [0.3, 0.5, 0.7])
def test_clique_round_simulation_cost(benchmark, sampling_exponent):
    """HYBRID rounds per simulated CLIQUE round as the skeleton grows."""
    n = smoke_scaled(180, 24)
    graph = locality_workload(n, seed=11)
    probability = n ** (sampling_exponent - 1.0)

    def run():
        network = bench_network(graph, seed=int(sampling_exponent * 100))
        skeleton = compute_skeleton(network, probability, ensure_connected=True)
        transport = HybridCliqueTransport(network, skeleton)
        before = network.metrics.total_rounds
        for _ in range(3):
            transport.exchange(MessageBatch.empty())
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


def test_clique_payload_round_cost(benchmark):
    """HYBRID rounds and wall time of CLIQUE rounds where every pair sends."""
    n = smoke_scaled(180, 24)
    graph = locality_workload(n, seed=11)
    probability = n ** (0.7 - 1.0)
    rounds = 3

    def run():
        network = bench_network(graph, seed=70)
        skeleton = compute_skeleton(network, probability, ensure_connected=True)
        transport = HybridCliqueTransport(network, skeleton)
        size = transport.size
        nodes = np.arange(size)
        senders, targets = np.repeat(nodes, size), np.tile(nodes, size)
        before = network.metrics.total_rounds
        for clique_round in range(rounds):
            transport.exchange(MessageBatch(senders, targets, clique_round * size + senders))
        per_round = (network.metrics.total_rounds - before) / rounds
        return skeleton, per_round

    skeleton, per_round = run_once(benchmark, run)
    attach(
        benchmark,
        {
            "experiment": "E8",
            "n": n,
            "sampling_exponent_x": 0.7,
            "skeleton_size": skeleton.size,
            "clique_rounds": rounds,
            "hybrid_rounds_per_clique_round": round(per_round, 2),
            "corollary_4_1_shape": round(predicted_simulation_rounds(n, skeleton.size), 2),
        },
    )
