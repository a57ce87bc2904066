"""Tests for exact APSP in the HYBRID model (Section 3, Theorem 1.1)."""

import pytest

from repro import HybridSession
from repro.core.apsp import apsp_exact
from repro.core.token_routing import TokenRouter
from repro.graphs import generators, reference
from repro.hybrid import HybridNetwork, ModelConfig
from repro.util.rand import RandomSource


def exact_everywhere(graph, result) -> int:
    truth = reference.all_pairs_distances(graph)
    errors = 0
    for u in range(graph.node_count):
        for v, d in truth[u].items():
            if abs(result.distance(u, v) - d) > 1e-9:
                errors += 1
    return errors


class TestAPSPCorrectness:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_exact_on_weighted_random_graphs(self, seed):
        graph = generators.connected_workload(45, RandomSource(seed), weighted=True, max_weight=9)
        network = HybridNetwork(graph, ModelConfig(rng_seed=seed, skeleton_xi=1.0))
        result = apsp_exact(network)
        assert exact_everywhere(graph, result) == 0

    def test_exact_on_unweighted_graph(self):
        graph = generators.connected_workload(40, RandomSource(4), weighted=False)
        network = HybridNetwork(graph, ModelConfig(rng_seed=4, skeleton_xi=1.0))
        result = apsp_exact(network)
        assert exact_everywhere(graph, result) == 0

    def test_exact_on_large_diameter_graph(self):
        graph = generators.random_geometric_like_graph(
            48, neighbourhood=2, rng=RandomSource(5), extra_edge_probability=0.0
        )
        network = HybridNetwork(graph, ModelConfig(rng_seed=5, skeleton_xi=1.0))
        result = apsp_exact(network)
        assert exact_everywhere(graph, result) == 0

    def test_exact_on_structured_graphs(self):
        for graph in (generators.grid_graph(6, 7), generators.barbell_graph(8, 6)):
            network = HybridNetwork(graph, ModelConfig(rng_seed=6, skeleton_xi=1.0))
            result = apsp_exact(network)
            assert exact_everywhere(graph, result) == 0

    def test_diagonal_is_zero(self):
        graph = generators.connected_workload(30, RandomSource(7), weighted=True, max_weight=4)
        network = HybridNetwork(graph, ModelConfig(rng_seed=7, skeleton_xi=1.0))
        result = apsp_exact(network)
        assert all(result.distance(v, v) == 0 for v in range(graph.node_count))

    def test_distances_from_accessor(self):
        graph = generators.connected_workload(25, RandomSource(8), weighted=True, max_weight=4)
        network = HybridNetwork(graph, ModelConfig(rng_seed=8, skeleton_xi=1.0))
        result = apsp_exact(network)
        row = result.distances_from(3)
        assert row[3] == 0
        assert len(row) == graph.node_count


class TestAPSPAccounting:
    def test_rounds_and_metadata_recorded(self):
        graph = generators.connected_workload(40, RandomSource(9), weighted=True, max_weight=4)
        network = HybridNetwork(graph, ModelConfig(rng_seed=9, skeleton_xi=1.0))
        result = apsp_exact(network)
        assert result.rounds == network.metrics.total_rounds
        assert result.skeleton_size >= 1
        assert result.hop_length >= 1
        assert result.routing_tokens >= graph.node_count  # ~ n * |V_S|

    def test_warm_apsp_reuses_routing_plan(self, monkeypatch):
        graph = generators.connected_workload(48, RandomSource(12), weighted=True, max_weight=4)
        session = HybridSession(graph, ModelConfig(rng_seed=12))
        planned = []
        original = TokenRouter.plan

        def counted(router, *labels):
            planned.append(len(labels[0]))
            return original(router, *labels)

        monkeypatch.setattr(TokenRouter, "plan", counted)
        cold = session.apsp()
        assert planned == [cold.routing_tokens]
        # Same connectors, same labels: the router routes them without a plan.
        warm = session.apsp()
        assert planned == [cold.routing_tokens]
        assert (warm.matrix == cold.matrix).all()
        assert exact_everywhere(graph, warm) == 0

    def test_send_cap_respected_throughout(self):
        graph = generators.connected_workload(36, RandomSource(10), weighted=True, max_weight=4)
        network = HybridNetwork(graph, ModelConfig(rng_seed=10, skeleton_xi=1.0))
        apsp_exact(network)
        assert network.metrics.max_sent_per_round <= network.send_cap

    def test_rounds_well_below_pure_global_cost(self):
        # The whole point of HYBRID: far fewer rounds than the Ω̃(n) a pure
        # global-network solution needs on a high-diameter graph.
        graph = generators.random_geometric_like_graph(
            60, neighbourhood=2, rng=RandomSource(11), extra_edge_probability=0.0
        )
        network = HybridNetwork(graph, ModelConfig(rng_seed=11, skeleton_xi=1.0))
        result = apsp_exact(network)
        # A global-only solution needs every node to receive ~n distances at
        # O(log n) messages per round, i.e. ~n^2/log n rounds in total through
        # the coordinator; the HYBRID algorithm stays far below that.
        assert result.rounds < graph.node_count ** 2 / 10
