"""E9 -- Skeleton graph properties (Lemmas C.1 / C.2).

Builds skeletons for a sweep of sampling probabilities and audits connectivity,
distance preservation and the largest skeleton-free gap on shortest paths,
reporting them next to the hop-length parameter ``h`` that Lemma C.1 promises
is (w.h.p.) an upper bound on the gap.
"""

import pytest

from benchmarks.conftest import attach, bench_network, random_workload, run_once
from repro.core.skeleton import compute_skeleton
from repro.graphs.skeleton_analysis import audit_skeleton
from repro.util.rand import RandomSource


@pytest.mark.parametrize("sampling_probability", [0.1, 0.25, 0.5])
def test_skeleton_properties(benchmark, sampling_probability):
    n = 150
    graph = random_workload(n, seed=21)

    def run():
        network = bench_network(graph, seed=int(sampling_probability * 100))
        skeleton = compute_skeleton(network, sampling_probability)
        report = audit_skeleton(
            graph, skeleton.nodes, skeleton.hop_length, RandomSource(5), pair_samples=40
        )
        return skeleton, report

    skeleton, report = run_once(benchmark, run)
    attach(
        benchmark,
        {
            "experiment": "E9",
            "n": n,
            "sampling_probability": sampling_probability,
            "skeleton_size": report.node_count,
            "skeleton_edges": report.edge_count,
            "hop_length_h": skeleton.hop_length,
            "connected": report.connected,
            "distance_preserving": report.distance_preserving,
            "max_gap_hops": report.max_gap_hops,
            "construction_rounds": skeleton.rounds_charged,
        },
    )
