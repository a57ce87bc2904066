"""Tests for the k-SSP framework (Theorem 4.1) and exact SSSP (Theorem 1.3)."""

import numpy as np
import pytest

from repro.clique import BroadcastKSourceBellmanFord, GatherShortestPaths
from repro.core.kssp import predicted_framework_rounds, shortest_paths_via_clique
from repro.core.sssp import sssp_exact
from repro.graphs import generators, reference
from repro.hybrid import HybridNetwork, ModelConfig
from repro.util.rand import RandomSource


def make_network(seed, n=42, weighted=True, max_weight=7):
    graph = generators.connected_workload(
        n, RandomSource(seed), weighted=weighted, max_weight=max_weight
    )
    return graph, HybridNetwork(graph, ModelConfig(rng_seed=seed, skeleton_xi=1.0))


class TestKSSPFramework:
    def test_estimates_never_undershoot(self):
        graph, network = make_network(21)
        sources = [0, 9, 17, 30]
        result = shortest_paths_via_clique(network, sources, GatherShortestPaths())
        truth = reference.multi_source_distances(graph, sources)
        for s in sources:
            for v in range(graph.node_count):
                assert result.estimate(v, s) >= truth[s][v] - 1e-9

    def test_estimates_within_guarantee(self):
        graph, network = make_network(22)
        sources = [1, 8, 25]
        result = shortest_paths_via_clique(network, sources, GatherShortestPaths())
        truth = reference.multi_source_distances(graph, sources)
        bound = result.guaranteed_alpha(weighted=True)
        for s in sources:
            for v in range(graph.node_count):
                if truth[s][v] > 0:
                    assert result.estimate(v, s) <= bound * truth[s][v] + 1e-6

    def test_exact_with_exact_clique_algorithm_in_practice(self):
        # With an exact CLIQUE algorithm and sources' representatives equal to
        # themselves (sources sampled into the skeleton are frequent at this
        # density), most estimates are exact; all are within the guarantee and
        # at least the source rows at distance < h are exact.
        graph, network = make_network(23, n=36)
        sources = [0, 5]
        result = shortest_paths_via_clique(network, sources, BroadcastKSourceBellmanFord())
        truth = reference.multi_source_distances(graph, sources)
        hops = {s: reference.hop_distances(graph, s) for s in sources}
        close_exact = 0
        for s in sources:
            for v in range(graph.node_count):
                if hops[s].get(v, float("inf")) <= result.exploration_depth:
                    assert result.estimate(v, s) == pytest.approx(truth[s][v])
                    close_exact += 1
        assert close_exact > 0

    def test_unweighted_graphs_supported(self):
        graph, network = make_network(24, weighted=False)
        sources = [3, 13]
        result = shortest_paths_via_clique(network, sources, GatherShortestPaths())
        truth = reference.multi_source_distances(graph, sources)
        bound = result.guaranteed_alpha(weighted=False)
        for s in sources:
            for v in range(graph.node_count):
                if truth[s][v] > 0:
                    assert truth[s][v] <= result.estimate(v, s) <= bound * truth[s][v] + 1e-6

    def test_result_metadata(self):
        graph, network = make_network(25)
        result = shortest_paths_via_clique(network, [2, 4], GatherShortestPaths())
        assert result.rounds == network.metrics.total_rounds
        assert result.skeleton_size >= 1
        assert result.clique_rounds >= 1
        assert result.spec.name == "gather-exact"

    def test_requires_sources(self):
        _, network = make_network(26)
        with pytest.raises(ValueError):
            shortest_paths_via_clique(network, [], GatherShortestPaths())

    def test_duplicate_sources_deduplicated(self):
        graph, network = make_network(27)
        result = shortest_paths_via_clique(network, [4, 4, 4], GatherShortestPaths())
        assert result.sources == [4]

    def test_predicted_rounds_formula(self):
        spec = GatherShortestPaths().spec
        assert predicted_framework_rounds(1000, spec) == pytest.approx(1000 ** 0.6)


class TestSSSP:
    @pytest.mark.parametrize("seed", [31, 32])
    def test_exact_on_weighted_graphs(self, seed):
        graph, network = make_network(seed)
        result = sssp_exact(network, source=0)
        truth = reference.single_source_distances(graph, 0)
        for v, d in truth.items():
            assert result.distance(v) == pytest.approx(d)

    def test_exact_on_large_diameter_graph(self):
        graph = generators.random_geometric_like_graph(
            50, neighbourhood=2, rng=RandomSource(33), extra_edge_probability=0.0
        )
        network = HybridNetwork(graph, ModelConfig(rng_seed=33, skeleton_xi=1.0))
        result = sssp_exact(network, source=7)
        truth = reference.single_source_distances(graph, 7)
        for v, d in truth.items():
            assert result.distance(v) == pytest.approx(d)

    def test_source_distance_zero(self):
        _, network = make_network(34)
        result = sssp_exact(network, source=11)
        assert result.distance(11) == 0.0

    def test_rejects_inexact_clique_algorithm(self):
        from repro.clique.interfaces import CliqueAlgorithmSpec, CliqueShortestPathAlgorithm

        class SloppySSSP(CliqueShortestPathAlgorithm):
            def __init__(self):
                self.spec = CliqueAlgorithmSpec(0, 1, 1, 2.0, 0.0)

            def run(self, transport, weights, sources):
                return np.zeros((transport.size, len(sources)))

        _, network = make_network(35)
        with pytest.raises(ValueError):
            sssp_exact(network, 0, algorithm=SloppySSSP())

    def test_metadata(self):
        _, network = make_network(36)
        result = sssp_exact(network, source=3)
        assert result.rounds == network.metrics.total_rounds
        assert result.skeleton_size >= 1
        assert result.clique_rounds >= 1

    def test_disconnected_graph_keeps_unreachable_entries(self):
        """Contract pin: ``distances`` covers every node, inf for unreachable.

        Mirrors the ``inf`` entries of ``APSPResult.matrix`` -- earlier
        revisions silently dropped unreachable nodes from the SSSP dict.
        """
        from repro.core.apsp import apsp_exact
        from repro.graphs.graph import INFINITY, WeightedGraph

        graph = WeightedGraph(7)
        for u, v in [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4)]:
            graph.add_edge(u, v, 2)

        network = HybridNetwork(graph, ModelConfig(rng_seed=41))
        result = sssp_exact(network, source=0)
        assert set(result.distances) == set(range(7))
        for v, d in reference.single_source_distances(graph, 0).items():
            assert result.distance(v) == pytest.approx(d)
        for unreachable in (4, 5, 6):
            assert result.distances[unreachable] == INFINITY
            assert result.distance(unreachable) == INFINITY

        apsp_network = HybridNetwork(graph, ModelConfig(rng_seed=41))
        apsp = apsp_exact(apsp_network)
        for unreachable in (4, 5, 6):
            assert apsp.distance(0, unreachable) == INFINITY
