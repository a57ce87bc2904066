"""E10 -- Helper-set properties (Definition 2.1 / Lemma 2.2).

Builds helper families for sampled member sets and reports the three
Definition 2.1 properties (minimum size vs µ, helper radius, membership load)
together with the construction's round cost ``O(µ log n)``.
"""

import pytest

from benchmarks.conftest import attach, bench_network, locality_workload, run_once
from repro.core.helper_sets import compute_helper_sets
from repro.util.rand import RandomSource, sample_nodes


@pytest.mark.parametrize("member_probability, tokens", [(0.1, 4), (0.1, 64), (0.3, 16)])
def test_helper_set_properties(benchmark, member_probability, tokens):
    n = 160
    graph = locality_workload(n, seed=31)
    members = sample_nodes(
        range(n), member_probability, RandomSource(int(member_probability * 100))
    )
    members = members or [0]

    def run():
        network = bench_network(graph, seed=tokens)
        helpers = compute_helper_sets(network, members, tokens_per_member=tokens)
        return network, helpers

    network, helpers = run_once(benchmark, run)
    attach(
        benchmark,
        {
            "experiment": "E10",
            "n": n,
            "members": len(members),
            "tokens_per_member": tokens,
            "mu": helpers.mu,
            "min_helper_count": helpers.min_helper_count(),
            "max_membership_load": helpers.max_membership_load(),
            "max_helper_radius": helpers.max_helper_radius(network),
            "cluster_radius": helpers.radius,
            "construction_rounds": helpers.rounds_charged,
        },
    )
