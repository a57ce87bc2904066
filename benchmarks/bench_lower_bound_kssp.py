"""E6 -- The k-SSP lower bound gadget (Theorem 1.5, Figure 1).

Builds the worst-case graph for a sweep of source counts and reports the
distance-gap factor ``Θ(n/√k)``, the entropy of the hidden source split, and
the implied ``Ω̃(√k)`` round lower bound, next to the rounds an actual upper
bound algorithm (the k-SSP framework) takes on the same gadget.
"""

import pytest

from benchmarks.conftest import attach, bench_network, run_once
from repro.clique import GatherShortestPaths
from repro.core.kssp import shortest_paths_via_clique
from repro.hybrid.config import MESSAGE_BITS
from repro.lower_bounds import (
    assignment_entropy_bits,
    build_kssp_gadget,
    distance_gap_factor,
    implied_round_lower_bound,
)
from repro.util.rand import RandomSource


@pytest.mark.parametrize("k", [16, 64])
def test_kssp_gadget_bottleneck(benchmark, k):
    path_hops = 120

    def run():
        gadget = build_kssp_gadget(path_hops, k, RandomSource(k))
        network = bench_network(gadget.graph, seed=k)
        upper = shortest_paths_via_clique(network, gadget.sources, GatherShortestPaths())
        return gadget, network, upper

    gadget, network, upper = run_once(benchmark, run)
    attach(
        benchmark,
        {
            "experiment": "E6",
            "k": k,
            "n": gadget.graph.node_count,
            "bottleneck_distance_L": gadget.bottleneck_distance,
            "distance_gap_factor": round(distance_gap_factor(gadget), 2),
            "entropy_bits": round(assignment_entropy_bits(gadget), 1),
            "implied_lower_bound_rounds": round(
                implied_round_lower_bound(gadget, MESSAGE_BITS, network.send_cap),
                2,
            ),
            "upper_bound_algorithm_rounds": upper.rounds,
            "sqrt_k": k ** 0.5,
        },
    )
