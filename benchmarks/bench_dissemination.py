"""E12 -- Token dissemination (Lemma B.1) and NCC aggregation (Lemma B.2).

Sweeps the number of broadcast tokens and reports measured rounds against the
``√k + ℓ + k/n`` shape; the aggregation benchmark checks the ``O(log n)`` cost.
"""

import math

import pytest

from benchmarks.conftest import (
    attach,
    bench_network,
    locality_workload,
    run_once,
    smoke_scaled,
)
from repro.localnet import aggregate_max, disseminate_tokens


@pytest.mark.parametrize("tokens_per_node", [1, 4, 16])
def test_token_dissemination_rounds(benchmark, tokens_per_node):
    n = smoke_scaled(150, 24)
    graph = locality_workload(n, seed=51)
    tokens = {node: [("t", node, i) for i in range(tokens_per_node)] for node in range(n)}
    total = n * tokens_per_node

    def run():
        network = bench_network(graph, seed=tokens_per_node)
        return disseminate_tokens(network, tokens)

    result = run_once(benchmark, run)
    attach(
        benchmark,
        {
            "experiment": "E12",
            "n": n,
            "total_tokens_k": total,
            "measured_rounds": result.rounds,
            "lemma_b1_shape": round(math.sqrt(total) + tokens_per_node + total / n, 1),
        },
    )


def test_aggregation_rounds(benchmark):
    n = smoke_scaled(200, 24)
    graph = locality_workload(n, seed=52)
    values = {node: float((node * 37) % 101) for node in range(n)}

    def run():
        network = bench_network(graph, seed=3)
        aggregate_max(network, values)
        return network

    network = run_once(benchmark, run)
    attach(
        benchmark,
        {
            "experiment": "E12",
            "n": n,
            "measured_rounds": network.metrics.total_rounds,
            "lemma_b2_shape_log_n": round(math.log2(n), 1),
        },
    )
