"""Tests for simulating the CLIQUE model inside a HYBRID network (Corollary 4.1)."""

import pytest

from repro.clique import GatherShortestPaths
from repro.core.clique_simulation import HybridCliqueTransport, predicted_simulation_rounds
from repro.core.skeleton import compute_skeleton
from repro.graphs import generators
from repro.hybrid import HybridNetwork, ModelConfig
from repro.util.rand import RandomSource


@pytest.fixture
def network():
    graph = generators.connected_workload(40, RandomSource(19), weighted=True, max_weight=5)
    return HybridNetwork(graph, ModelConfig(rng_seed=9, skeleton_xi=1.0))


@pytest.fixture
def skeleton(network):
    return compute_skeleton(network, 0.25, ensure_connected=True)


class TestHybridCliqueTransport:
    def test_exchange_delivers_payloads(self, network, skeleton):
        transport = HybridCliqueTransport(network, skeleton)
        size = transport.size
        outboxes = {0: [(i, f"to-{i}") for i in range(size)]}
        inboxes = transport.exchange(outboxes)
        for i in range(1, size):
            assert (0, f"to-{i}") in inboxes.get(i, [])

    def test_rounds_used_counts_clique_rounds(self, network, skeleton):
        transport = HybridCliqueTransport(network, skeleton)
        transport.exchange({})
        transport.exchange({})
        assert transport.rounds_used == 2

    def test_hybrid_rounds_grow_with_clique_rounds(self, network, skeleton):
        transport = HybridCliqueTransport(network, skeleton)
        before = network.metrics.total_rounds
        transport.exchange({})
        after_one = network.metrics.total_rounds
        transport.exchange({})
        after_two = network.metrics.total_rounds
        assert after_one > before
        assert after_two > after_one

    def test_padding_does_not_leak_into_inboxes(self, network, skeleton):
        transport = HybridCliqueTransport(network, skeleton)
        inboxes = transport.exchange({})
        assert all(not messages for messages in inboxes.values())

    def test_invalid_index_rejected(self, network, skeleton):
        transport = HybridCliqueTransport(network, skeleton)
        with pytest.raises(ValueError):
            transport.exchange({transport.size + 1: [(0, "x")]})
        with pytest.raises(ValueError):
            transport.exchange({0: [(transport.size + 1, "x")]})

    def test_clique_algorithm_runs_correctly_inside_hybrid(self, network, skeleton):
        transport = HybridCliqueTransport(network, skeleton)
        algorithm = GatherShortestPaths()
        sources = [0]
        estimates = algorithm.run(transport, skeleton.incident_edges(), sources)
        truth = skeleton.graph.dijkstra(0)
        for index in range(skeleton.graph.node_count):
            assert estimates[index][0] == pytest.approx(truth.get(index, float("inf")))

    def test_predicted_rounds_formula(self):
        assert predicted_simulation_rounds(100, 10) == pytest.approx(1.0 + 10 ** 0.5)

    def test_empty_skeleton_rejected(self, network):
        class FakeSkeleton:
            size = 0

        with pytest.raises((ValueError, AttributeError)):
            HybridCliqueTransport(network, FakeSkeleton())
