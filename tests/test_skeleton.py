"""Tests for skeleton construction (Algorithm 6, Lemmas C.1/C.2) and
representatives (Algorithm 7)."""

import itertools

import networkx as nx
import numpy as np
import pytest

from repro.core.representatives import compute_representatives
from repro.core.skeleton import (
    compute_skeleton,
    framework_exponent,
    framework_sampling_probability,
    skeleton_from_exploration,
    weights_connected,
)
from repro.graphs import generators, reference
from repro.graphs.graph import WeightedGraph
from repro.graphs.skeleton_analysis import (
    audit_skeleton,
    build_skeleton_offline,
    sample_gap_on_shortest_path,
    skeleton_hop_length,
)
from repro.hybrid import HybridNetwork, ModelConfig
from repro.localnet.flooding import LimitedExploration
from repro.util.rand import RandomSource


@pytest.fixture
def network():
    graph = generators.connected_workload(50, RandomSource(31), weighted=True, max_weight=6)
    return HybridNetwork(graph, ModelConfig(rng_seed=7, skeleton_xi=1.0))


class TestFrameworkParameters:
    def test_exponent_formula(self):
        assert framework_exponent(0.0) == pytest.approx(2.0 / 3.0)
        assert framework_exponent(1.0) == pytest.approx(0.4)
        assert framework_exponent(1.0 / 6.0) == pytest.approx(0.6)

    def test_exponent_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            framework_exponent(-0.1)

    def test_sampling_probability_in_range(self):
        p = framework_sampling_probability(1000, 1.0)
        assert 0 < p <= 1
        assert p == pytest.approx(1000 ** (0.4 - 1.0))

    def test_sampling_probability_tiny_network(self):
        assert framework_sampling_probability(1, 0.5) == 1.0

    def test_hop_length_clamped(self):
        assert 1 <= skeleton_hop_length(10, 1000, xi=1.0) <= 10
        assert skeleton_hop_length(1, 5) == 1


class TestComputeSkeleton:
    def test_forced_members_included(self, network):
        skeleton = compute_skeleton(network, 0.1, forced_members=[13])
        assert skeleton.contains(13)

    def test_never_empty(self, network):
        skeleton = compute_skeleton(network, 1e-9)
        assert skeleton.size >= 1

    def test_invalid_probability(self, network):
        with pytest.raises(ValueError):
            compute_skeleton(network, 0.0)

    def test_edges_connect_nearby_sampled_nodes(self, network):
        skeleton = compute_skeleton(network, 0.25)
        heads, tails = np.nonzero(np.triu(np.isfinite(skeleton.weights), 1))
        assert heads.size
        for u, v in zip(heads.tolist(), tails.tolist(), strict=True):
            w = skeleton.weights[u, v]
            original_u = skeleton.original_id(u)
            original_v = skeleton.original_id(v)
            hops = reference.hop_distances(network.graph, original_u)[original_v]
            assert hops <= skeleton.hop_length
            assert w >= reference.single_source_distances(network.graph, original_u)[original_v]

    def test_near_distances_only_contain_skeleton_nodes(self, network):
        skeleton = compute_skeleton(network, 0.2)
        assert skeleton.near_distances.shape == (network.n, skeleton.size)
        assert (skeleton.near_distances == skeleton.knowledge_matrix[:, skeleton.nodes]).all()
        assert not skeleton.near_distances.flags.writeable

    def test_ensure_connected(self, network):
        skeleton = compute_skeleton(network, 0.3, ensure_connected=True)
        assert skeleton.is_connected()

    def test_rounds_charged(self, network):
        before = network.metrics.total_rounds
        skeleton = compute_skeleton(network, 0.2)
        assert skeleton.rounds_charged == network.metrics.total_rounds - before
        assert skeleton.rounds_charged >= 1

    def test_closest_skeleton_node(self, network):
        skeleton = compute_skeleton(network, 0.3)
        for node in range(0, network.n, 11):
            closest = skeleton.closest_skeleton_node(node)
            if closest is not None:
                assert closest in skeleton.index_of

    @pytest.mark.parametrize(
        "row, expected",
        [
            ([0.0, 3.0, 0.5, 1.0, 2.0], 3),  # the closer non-member 2 is ignored
            ([0.0, 2.0, np.inf, np.inf, 2.0], 1),  # tie: the smallest node ID wins
            ([0.0, np.inf, 1.0, 2.0, 2.0], 3),  # tie between 3 and 4
            ([0.0, np.inf, 1.0, np.inf, np.inf], None),  # no member within h hops
        ],
    )
    def test_closest_skeleton_node_on_hand_built_matrix(self, row, expected):
        limited = np.full((5, 5), np.inf)
        np.fill_diagonal(limited, 0.0)
        limited[0] = row
        limited[:, 0] = row  # d_h is symmetric
        exploration = LimitedExploration(WeightedGraph(5).csr(), 2, limited)
        nodes = [1, 3, 4]
        skeleton = skeleton_from_exploration(exploration, nodes, exploration.rows(nodes), 0.5, 0)
        assert skeleton.closest_skeleton_node(0) == expected

    def test_incident_edges_symmetric(self, network):
        skeleton = compute_skeleton(network, 0.3)
        weights = skeleton.weights
        assert weights.shape == (skeleton.size, skeleton.size)
        assert weights.dtype == np.float64
        assert np.array_equal(weights, weights.T)
        assert np.isinf(np.diagonal(weights)).all()
        assert not weights.flags.writeable


def random_weights(size, density, seed):
    """A symmetric weight matrix with ``inf`` off-edge and on the diagonal."""
    rng = np.random.default_rng(seed)
    weights = rng.integers(1, 9, (size, size)).astype(float)
    weights[rng.random((size, size)) >= density] = np.inf
    weights = np.minimum(weights, weights.T)
    np.fill_diagonal(weights, np.inf)
    return weights


def networkx_connected(weights):
    graph = nx.Graph()
    graph.add_nodes_from(range(weights.shape[0]))
    graph.add_edges_from(zip(*np.nonzero(np.isfinite(weights)), strict=True))
    return nx.is_connected(graph)


class TestWeightsConnected:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize(
        "size, density", [(2, 0.3), (5, 0.2), (29, 0.06), (29, 0.2), (60, 0.04)]
    )
    def test_matches_networkx(self, size, density, seed):
        weights = random_weights(size, density, seed)
        assert weights_connected(weights) == networkx_connected(weights)

    def test_one_node_is_connected(self):
        assert weights_connected(np.full((1, 1), np.inf))

    def test_no_node_is_connected(self):
        assert weights_connected(np.zeros((0, 0)))

    def test_two_components(self):
        weights = random_weights(20, 1.0, 0)
        weights[:10, 10:] = weights[10:, :10] = np.inf
        assert networkx_connected(weights[:10, :10]) and networkx_connected(weights[10:, 10:])
        assert not weights_connected(weights)
        weights[3, 15] = weights[15, 3] = 2.0
        assert weights_connected(weights)


class TestSkeletonAnalysis:
    def test_offline_skeleton_distance_preservation(self):
        graph = generators.connected_workload(40, RandomSource(3), weighted=True, max_weight=4)
        rng = RandomSource(5)
        sampled = [node for node in graph.nodes() if rng.bernoulli(0.3)] or [0]
        report = audit_skeleton(graph, sampled, hop_length=40, rng=RandomSource(7))
        assert report.connected
        assert report.distance_preserving
        assert report.max_distance_error == pytest.approx(0.0)

    def test_gap_on_shortest_path(self):
        path = generators.path_graph(12)
        gap = sample_gap_on_shortest_path(path, sampled=[0, 4, 8, 11], source=0, target=11)
        assert gap == 3

    def test_gap_is_measured_on_a_weighted_shortest_path(self):
        # The direct edge 0-2 is the fewest-hop path but not a shortest one:
        # d(0, 2) = 2 runs through the unsampled node 1.
        triangle = WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 10)])
        assert sample_gap_on_shortest_path(triangle, sampled=[0, 2], source=0, target=2) == 1

    def test_gap_none_when_disconnected(self):
        graph = generators.path_graph(4)
        graph.remove_edge(1, 2)
        assert sample_gap_on_shortest_path(graph, [0], 0, 3) is None

    def test_offline_build_matches_distances(self):
        graph = generators.connected_workload(30, RandomSource(9), weighted=True, max_weight=5)
        sampled = list(range(0, 30, 4))
        skeleton, mapping = build_skeleton_offline(graph, sampled, hop_length=30)
        for u in sampled[:3]:
            exact = reference.single_source_distances(graph, u)
            skel = reference.single_source_distances(skeleton, mapping[u])
            for v in sampled:
                if v != u:
                    assert skel[mapping[v]] == exact[v]


class TestRepresentatives:
    def test_skeleton_sources_are_their_own_representatives(self, network):
        skeleton = compute_skeleton(network, 0.3)
        source = skeleton.nodes[0]
        reps = compute_representatives(network, skeleton, [source])
        assert reps.representative[source] == source
        assert reps.distance_to_representative[source] == 0.0

    def test_every_source_gets_representative(self, network):
        skeleton = compute_skeleton(network, 0.2)
        sources = [1, 7, 19, 33]
        reps = compute_representatives(network, skeleton, sources)
        assert set(reps.representative) == set(sources)
        assert all(rep in skeleton.index_of for rep in reps.representative.values())

    def test_representative_distance_is_valid_upper_bound(self, network):
        skeleton = compute_skeleton(network, 0.2)
        sources = [2, 11, 29]
        reps = compute_representatives(network, skeleton, sources)
        for source in sources:
            rep = reps.representative[source]
            exact = reference.single_source_distances(network.graph, source)[rep]
            assert reps.distance_to_representative[source] >= exact

    def test_representative_distance_is_d_h_from_member_rows(self, network):
        skeleton = compute_skeleton(network, 0.2)
        sources = [node for node in range(network.n) if not skeleton.contains(node)]
        reps = compute_representatives(network, skeleton, sources)
        for source in sources:
            rep = reps.representative[source]
            d_h = reference.hop_limited_distances(network.graph, source, skeleton.hop_length)
            assert reps.distance_to_representative[source] == d_h[rep]
        assert not skeleton.exploration.materialised

    def test_rounds_accounted(self, network):
        skeleton = compute_skeleton(network, 0.2)
        before = network.metrics.total_rounds
        reps = compute_representatives(network, skeleton, [4, 5])
        assert reps.rounds == network.metrics.total_rounds - before


def fallback_case(graph):
    """The network on ``graph`` with a skeleton of node 20 alone and h = 3.

    Every source more than 3 hops from node 20 falls back to the
    whole-graph distance.
    """
    network = HybridNetwork(graph, ModelConfig(rng_seed=1))
    exploration = LimitedExploration(graph.csr(), 3)
    skeleton = skeleton_from_exploration(exploration, [20], exploration.rows([20]), 0.5, 0)
    return network, skeleton


def two_route_network():
    """Node 0 reaches node 20 over 20 unit edges or over 10 edges of weight 2.

    A unit-weight tail 20 - 30 - ... - 59 keeps the hop diameter (45) above
    both routes.
    """
    graph = WeightedGraph(60)
    for u in range(20):
        graph.add_edge(u, u + 1, 1)
    route = [0, *range(21, 30), 20]
    for u, v in itertools.pairwise(route):
        graph.add_edge(u, v, 2)
    tail = [20, *range(30, 60)]
    for u, v in itertools.pairwise(tail):
        graph.add_edge(u, v, 1)
    return fallback_case(graph)


class TestRepresentativeFallback:
    @pytest.mark.parametrize(
        "sources, expected_rounds",
        # The fewest hops of a shortest path: 10 from node 0 (the weight-2
        # route ties the unit one), 15 from node 5, 16 from node 45 (down
        # the tail); parallel floods charge the longest.
        [([0], 10), ([5], 15), ([0, 5], 15), ([45, 0], 16)],
    )
    def test_fallback_flood_is_charged(self, sources, expected_rounds):
        network, skeleton = two_route_network()
        assert all(skeleton.closest_skeleton_node(source) is None for source in sources)
        reps = compute_representatives(network, skeleton, sources, phase="reps")
        phases = network.metrics.phases
        assert phases["reps:fallback"].local_rounds == expected_rounds
        assert phases["reps:fallback"].global_rounds == 0
        for source in sources:
            assert reps.representative[source] == 20
            exact = reference.single_source_distances(network.graph, source)[20]
            assert reps.distance_to_representative[source] == exact
        assert reps.rounds == network.metrics.total_rounds

    def test_flood_is_capped_at_the_diameter(self):
        # A 21-node cycle: unit edges 0 - 1 - ... - 20 and a heavy edge
        # 0 - 20.  Node 5's shortest path to 20 takes 15 hops; D = 10.
        graph = generators.path_graph(21)
        graph.add_edge(0, 20, 50)
        network, skeleton = fallback_case(graph)
        assert network.hop_diameter() == 10
        compute_representatives(network, skeleton, [5], phase="reps")
        assert network.metrics.phases["reps:fallback"].local_rounds == 10

    def test_sources_near_the_skeleton_charge_no_fallback(self):
        network, skeleton = two_route_network()
        compute_representatives(network, skeleton, [18, 20, 29], phase="reps")
        assert "reps:fallback" not in network.metrics.phases
