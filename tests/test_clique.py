"""Tests for the CLIQUE model simulator and the plug-in CLIQUE algorithms."""

import numpy as np
import pytest
from scalar_plane import from_outboxes, to_inboxes

from repro.clique import (
    BroadcastBellmanFordSSSP,
    BroadcastKSourceBellmanFord,
    CliqueAlgorithmSpec,
    CliqueNetwork,
    EccentricityDiameter,
    GatherDiameter,
    GatherShortestPaths,
)
from repro.graphs import generators, reference
from repro.hybrid.errors import CapacityExceededError
from repro.util.rand import RandomSource


def weights_of(graph):
    """The CLIQUE input: the edge-weight matrix, ``inf`` where there is no edge."""
    weights = np.full((graph.node_count, graph.node_count), np.inf)
    for u, v, w in graph.edges():
        weights[u, v] = weights[v, u] = w
    return weights


@pytest.fixture
def clique_graph():
    return generators.connected_workload(18, RandomSource(23), weighted=True, max_weight=7)


def run_round(clique, outboxes):
    """One CLIQUE round from dict-form outboxes, returned as dict-form inboxes."""
    return to_inboxes(clique.exchange(from_outboxes(outboxes)))


class TestCliqueNetwork:
    def test_exchange_delivers(self):
        clique = CliqueNetwork(4)
        inboxes = run_round(clique, {0: [(1, "a"), (2, "b")], 3: [(1, "c")]})
        assert inboxes == {1: [(0, "a"), (3, "c")], 2: [(0, "b")]}
        assert clique.rounds_used == 1
        assert clique.messages_sent == 3

    def test_send_cap(self):
        clique = CliqueNetwork(3)
        with pytest.raises(CapacityExceededError):
            run_round(clique, {0: [(1, i) for i in range(4)]})

    def test_receive_cap(self):
        clique = CliqueNetwork(3)
        outboxes = {s: [(0, "x")] * 3 for s in range(3)}
        with pytest.raises(CapacityExceededError):
            run_round(clique, outboxes)

    def test_invalid_target(self):
        clique = CliqueNetwork(3)
        with pytest.raises(ValueError):
            run_round(clique, {0: [(7, "x")]})
        with pytest.raises(ValueError):
            run_round(clique, {-1: [(0, "x")]})

    def test_needs_positive_size(self):
        with pytest.raises(ValueError):
            CliqueNetwork(0)


class TestSpec:
    def test_exact_flag(self):
        exact = CliqueAlgorithmSpec(1, 0, 1, 1.0, 0.0)
        approx = CliqueAlgorithmSpec(1, 0, 1, 2.0, 0.0)
        assert exact.exact and not approx.exact

    def test_hybrid_exponent(self):
        assert CliqueAlgorithmSpec(1, 0, 1, 1, 0).hybrid_exponent() == pytest.approx(1 / 3)
        assert CliqueAlgorithmSpec(1, 1, 1, 1, 0).hybrid_exponent() == pytest.approx(0.6)

    def test_transformed_factors(self):
        spec = CliqueAlgorithmSpec(1, 0, 2, 1.5, 0.0)
        assert spec.hybrid_weighted_alpha() == pytest.approx(4.0)
        assert spec.hybrid_unweighted_alpha() == pytest.approx(2.5)


class TestGatherShortestPaths:
    def test_exact_on_all_sources(self, clique_graph):
        clique = CliqueNetwork(clique_graph.node_count)
        algorithm = GatherShortestPaths()
        sources = list(range(clique_graph.node_count))
        estimates = algorithm.run(clique, weights_of(clique_graph), sources)
        assert estimates.shape == (clique_graph.node_count, len(sources))
        # The heapq Dijkstra shares no code with the scipy kernel the gather
        # solves with.
        for s in sources:
            truth = reference.single_source_distances(clique_graph, s)
            for v in range(clique_graph.node_count):
                assert estimates[v, s] == truth[v]

    def test_round_count_is_max_degree(self, clique_graph):
        clique = CliqueNetwork(clique_graph.node_count)
        GatherShortestPaths().run(clique, weights_of(clique_graph), [0])
        max_degree = int(np.diff(clique_graph.csr().indptr).max())
        assert clique.rounds_used == max_degree

    def test_spec_is_exact(self):
        assert GatherShortestPaths().spec.exact


class TestBellmanFordAlgorithms:
    def test_sssp_exact(self, clique_graph):
        clique = CliqueNetwork(clique_graph.node_count)
        estimates = BroadcastBellmanFordSSSP().run(clique, weights_of(clique_graph), [3])
        assert estimates.shape == (clique_graph.node_count, 1)
        truth = reference.single_source_distances(clique_graph, 3)
        for v in range(clique_graph.node_count):
            assert estimates[v, 0] == truth[v]

    def test_sssp_requires_single_source(self, clique_graph):
        clique = CliqueNetwork(clique_graph.node_count)
        with pytest.raises(ValueError):
            BroadcastBellmanFordSSSP().run(clique, weights_of(clique_graph), [0, 1])

    def test_kssp_exact(self, clique_graph):
        clique = CliqueNetwork(clique_graph.node_count)
        sources = [0, 4, 9]
        estimates = BroadcastKSourceBellmanFord().run(
            clique, weights_of(clique_graph), sources
        )
        truth = reference.multi_source_distances(clique_graph, sources)
        for v in range(clique_graph.node_count):
            for column, s in enumerate(sources):
                assert estimates[v, column] == truth[s][v]

    def test_bellman_ford_rounds_bounded_by_size(self, clique_graph):
        clique = CliqueNetwork(clique_graph.node_count)
        BroadcastBellmanFordSSSP().run(clique, weights_of(clique_graph), [0])
        assert clique.rounds_used <= clique_graph.node_count + 1


class TestDiameterAlgorithms:
    def test_gather_diameter_exact(self, clique_graph):
        clique = CliqueNetwork(clique_graph.node_count)
        estimate = GatherDiameter().run(clique, weights_of(clique_graph))
        assert estimate == max(
            max(reference.single_source_distances(clique_graph, s).values())
            for s in clique_graph.nodes()
        )

    def test_eccentricity_diameter_within_factor_two(self, clique_graph):
        clique = CliqueNetwork(clique_graph.node_count)
        estimate = EccentricityDiameter().run(clique, weights_of(clique_graph))
        true_diameter = reference.weighted_diameter(clique_graph)
        assert true_diameter <= estimate <= 2 * true_diameter + 1e-9

    def test_eccentricity_spec(self):
        spec = EccentricityDiameter().spec
        assert spec.alpha == 2.0 and spec.beta == 0.0

    def test_disconnected_instance_gives_infinity(self):
        graph = generators.path_graph(4)
        graph.remove_edge(1, 2)
        clique = CliqueNetwork(4)
        assert GatherDiameter().run(clique, weights_of(graph)) == float("inf")
        assert EccentricityDiameter().run(clique, weights_of(graph)) == float("inf")
